"""Experiment registry and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.errors import ConfigError

__all__ = [
    "ExperimentResult",
    "register",
    "run_experiment",
    "get_experiment",
    "available_experiments",
]


@dataclass
class ExperimentResult:
    """Rows regenerating one table/figure of the paper."""

    exp_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ConfigError(
                f"{self.exp_id} has no column {name!r}; have {self.columns}"
            )
        return [row[name] for row in self.rows]

    def format(self) -> str:
        """Render as an aligned ASCII table (what the bench prints)."""
        cells = [
            [self._fmt(row.get(col)) for col in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [f"== {self.exp_id}: {self.title} ==", header, sep]
        lines += [
            " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells
        ]
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Serialize for archival / regression comparison."""
        import json

        return json.dumps(
            {
                "exp_id": self.exp_id,
                "title": self.title,
                "columns": self.columns,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        import json

        data = json.loads(text)
        return ExperimentResult(
            exp_id=data["exp_id"],
            title=data["title"],
            columns=list(data["columns"]),
            rows=list(data["rows"]),
            notes=data.get("notes", ""),
        )

    @staticmethod
    def _fmt(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, dict):
            return ", ".join(
                f"{k}: {ExperimentResult._fmt(v)}" for k, v in value.items()
            )
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            return f"{value:.3g}"
        return str(value)


_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def register(exp_id: str):
    """Class decorator-less registration for experiment drivers."""

    def wrap(fn: Callable[..., ExperimentResult]):
        if exp_id in _REGISTRY:
            raise ConfigError(f"experiment {exp_id!r} registered twice")
        _REGISTRY[exp_id] = fn
        return fn

    return wrap


def get_experiment(exp_id: str) -> Callable[..., ExperimentResult]:
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {exp_id!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None


def run_experiment(exp_id: str, **kwargs: Any) -> ExperimentResult:
    """Run one registered experiment driver."""
    return get_experiment(exp_id)(**kwargs)


def available_experiments() -> List[str]:
    return sorted(_REGISTRY)
