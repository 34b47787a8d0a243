"""Result records shared by the verification layers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckResult:
    """Outcome of one structural check on a module specification."""

    check_id: str
    statement: str
    passed: bool
    witness: str = ""

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "statement": self.statement,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass
class IdentityReport:
    """Outcome of one operator identity checked on a level window.

    The identity is declared to hold for every source level n with
    window[0] <= n <= window[1]; passed means the two sides agree on all
    of those levels exactly.
    """

    check_id: str
    statement: str
    window: tuple[int, int]
    passed: bool
    witness: str = ""

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "statement": self.statement,
            "window": list(self.window),
            "passed": self.passed,
            "witness": self.witness,
        }
