"""The bundled data files are exactly what ``scripts/generate_data.py`` writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "isotypic" / "data"


def test_generate_data_reproduces_bundled_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_data", ROOT / "scripts" / "generate_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", tmp_path)
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in BUNDLED.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (BUNDLED / name).read_bytes(), name
