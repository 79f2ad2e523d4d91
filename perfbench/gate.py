"""Correctness gate applied to every pass, the warm-up pass included.

A wrong answer aborts the run.  It is never counted as a failed operation: a
failed operation is one the program rejected with the exit code its command
would give, which is an honest outcome; a wrong answer is a certificate that
passed with the wrong content, or output bytes that change between passes.
"""

from __future__ import annotations

import hashlib


class WrongAnswer(Exception):
    """An output of the program is incorrect."""


class Gate:
    def __init__(self, tol: float):
        self.tol = tol
        self.digests: dict[str, str] = {}

    def same_bytes(self, key: str, text: str) -> str:
        """The text produced under `key` is byte-identical on every pass;
        returns its sha256."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            raise WrongAnswer(f"{key}: sha256 {digest} differs from the first pass ({first})")
        return digest

    def certify_report(self, row, report: dict) -> None:
        if not report["welch_residual"] <= self.tol:
            raise WrongAnswer(
                f"{row.key}: Welch residual {report['welch_residual']!r} exceeds tol {self.tol}"
            )
        if row.alpha_fraction is not None and report.get("alpha_fraction") != row.alpha_fraction:
            raise WrongAnswer(
                f"{row.key}: alpha_fraction {report.get('alpha_fraction')!r}, "
                f"expected {row.alpha_fraction}"
            )

    def action_payload(self, row, payload: dict) -> None:
        if payload["transitive"] is not True or payload["two_transitive"] is not True:
            raise WrongAnswer(f"{row.key}: action is not 2-transitive")
        if payload["group_order"] != row.group_order:
            raise WrongAnswer(
                f"{row.key}: group order {payload['group_order']}, expected {row.group_order}"
            )
