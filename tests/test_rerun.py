"""Every golden invocation re-runs from its manifest: running
manifest["argv"] again with only the --out-dir value changed writes
the same output hashes from the same source. So does a --config run
after its file is deleted. The run is compared with itself, so unlike
the golden hashes this holds under any numpy and scipy."""
import json
from pathlib import Path

import pytest

from ambcsim.cli import main
from test_golden import INVOCATIONS


def _manifest(argv):
    """Run argv; the run_manifest.json it wrote into its --out-dir."""
    assert main(argv) == 0
    out_dir = Path(argv[argv.index("--out-dir") + 1])
    return json.loads((out_dir / "run_manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_run_reruns_from_its_manifest(name, tmp_path):
    doc = _manifest(INVOCATIONS[name] + ["--out-dir", str(tmp_path / "a")])
    argv = list(doc["argv"])
    argv[argv.index("--out-dir") + 1] = str(tmp_path / "b")
    redo = _manifest(argv)
    assert doc["outputs"] and redo["outputs"] == doc["outputs"]
    assert redo["source_sha256"] == doc["source_sha256"]


@pytest.mark.parametrize("given", [["--config", "CFG"], ["--config=CFG"],
                                   ["--conf", "CFG"]])
def test_config_run_reruns_without_its_file(given, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=4,6\nsymbols=300\nper_re=yes\nseed=3\n")
    given = [a.replace("CFG", str(cfg)) for a in given]
    doc = _manifest(["simulate", "--msc", "12", *given, "--seed", "5",
                     "--out-dir", str(tmp_path / "a")])
    cfg.unlink()
    argv = list(doc["argv"])
    assert not any(a.startswith("--conf") for a in argv)
    argv[argv.index("--out-dir") + 1] = str(tmp_path / "b")
    redo = _manifest(argv)
    assert doc["outputs"] and redo["outputs"] == doc["outputs"]
    assert redo["config"] == {**doc["config"], "out_dir": str(tmp_path / "b")}
    assert doc["config"]["seed"] == 5 and doc["config"]["per_re"] is True
