"""The bundled models, monitors and sweep files ship with an installed
package: every file under ``src/trebeca/models`` matches a package-data glob
of ``pyproject.toml``."""
import re
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trebeca"


def package_data_globs() -> list[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one line by hand
        section = re.search(r"^\[tool\.setuptools\.package-data\]\s*\n(.*?)(?=^\[|\Z)",
                            text, re.M | re.S).group(1)
        line = re.search(r"^trebeca\s*=\s*\[(.*?)\]", section, re.M | re.S).group(1)
        return re.findall(r'"([^"]*)"', line)
    return tomllib.loads(text)["tool"]["setuptools"]["package-data"]["trebeca"]


def test_every_bundled_file_is_package_data():
    globs = package_data_globs()
    assert "models/*.txt" in globs
    files = [p.relative_to(PACKAGE).as_posix()
             for p in (PACKAGE / "models").rglob("*") if p.is_file()]
    assert "models/ticket_sweep.txt" in files
    assert [f for f in files if not any(fnmatch(f, g) for g in globs)] == []
