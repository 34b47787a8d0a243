"""The result record shared by the verification layers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckResult:
    """Outcome of one check: a structural check on a module specification,
    or an operator identity checked on a level window.

    An identity is declared to hold for every source level n with
    window[0] <= n <= window[1]; passed then means the two sides agree on
    all of those levels exactly. Any other check has window None, and its
    dict no window entry."""

    check_id: str
    statement: str
    passed: bool
    witness: str = ""
    window: tuple[int, int] | None = None

    def as_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "statement": self.statement,
            "passed": self.passed,
            "witness": self.witness,
        }
        if self.window is not None:
            out["window"] = list(self.window)
        return out
