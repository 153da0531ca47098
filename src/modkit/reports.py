"""Small check/report containers shared by the verification operations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One named verdict with a human-readable detail string.

    ok is stored as a Python bool, so a numpy verdict serialises as JSON.
    """

    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "ok", bool(self.ok))

    def line(self) -> str:
        out = f"[{'ok' if self.ok else 'FAIL':>4}] {self.name}"
        if self.detail:
            out += f": {self.detail}"
        return out


@dataclass(frozen=True)
class Report:
    """An ordered bundle of checks produced by one verification operation."""

    title: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join([self.title] + ["  " + c.line() for c in self.checks])
