"""Timed Rebeca toolset: parse, simulate, explore, monitor, emit."""
from pathlib import Path

from .parser import CheckedModel, ParseError, SourceError, load_model, parse_model, validate_model
from .scheduler import SchedulePolicy, Trace, run
from .explorer import ExploreBounds, ExploreResult, explore, replay
from .monitors import MonitorSpec, check_graph, check_trace, parse_monitor

__version__ = "0.1.0"

_MODELS = Path(__file__).parent / "models"


def bundled(name: str) -> Path:
    """Path of a bundled example model, monitor, env or sweep file."""
    path = _MODELS / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled file {name!r} (looked in {_MODELS})")
    return path


def bundled_models() -> list[Path]:
    return sorted(_MODELS.glob("*.rebeca"))
