"""Deterministic report documents.

Reports are JSON written by the standard library: every float is its
shortest round-trip representation, so identical inputs produce
byte-identical documents on any platform with IEEE-754 doubles, and
each float parses back to the same value.  JSON has no literal for
infinity, so the one infinite value a report carries, the Hoelder
exponent p = inf, is written as the string "inf" where the document is
built; any other non-finite value is refused by `render_document`.
"""

from __future__ import annotations

import json
import math

SCHEMA_VERSION = "flowcert-report/2"


def render_document(doc: dict) -> str:
    """Render a report dict as deterministic JSON text.

    Raises ValueError on a NaN or infinite value.
    """
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def certificate_document(report) -> dict:
    """Report dict for a CertificateReport."""
    detail = None
    if report.bolognani_detail is not None:
        detail = [
            {
                "p": "inf" if entry.p == math.inf else entry.p,
                "product": entry.product,
                "ok": entry.ok,
                "weighted_product": entry.weighted_product,
                "weighted_ok": entry.weighted_ok,
            }
            for entry in report.bolognani_detail
        ]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "certificate",
        "kernel": report.kernel,
        "xi_s": report.xi_s,
        "xi_s_hat": report.xi_s_hat,
        "xi_delta_s": report.xi_delta_s,
        "u_min": report.u_min,
        "delta": report.delta,
        "rho": report.rho,
        "theorem_ok": report.theorem_ok,
        "corollary_ok": report.corollary_ok,
        "bolognani_ok": report.bolognani_ok,
        "improved_ok": report.improved_ok,
        "bolognani_detail": detail,
    }


def solve_document(result, net) -> dict:
    """Report dict for a converged SolveResult, voltages included."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "solve",
        "converged": True,
        "iterations": result.iterations,
        "final_step": result.final_step,
        "residual": result.residual,
        "certified": result.certified,
        "contained_in_d": result.contained_in_d,
        "voltages": _voltages(result.v, net),
    }


def failed_solve_document(error, net) -> dict:
    """Report dict for a solve that ran out of iterations or collapsed.

    A step that is not finite is left out; the error message names it.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "solve",
        "converged": False,
        "error": str(error),
    }
    iterations = getattr(error, "iterations", None)
    last_step = getattr(error, "last_step", None)
    if iterations is not None:
        doc["iterations"] = iterations
    if last_step is not None and math.isfinite(last_step):
        doc["final_step"] = float(last_step)
    iterate = getattr(error, "iterate", None)
    if iterate is not None:
        doc["voltages"] = _voltages(iterate, net)
    return doc


def _voltages(v, net) -> list[dict]:
    """The ``voltages`` entries of a solve document for load voltages ``v``."""
    return [
        {
            "bus": bus_id,
            "re": float(v[i].real),
            "im": float(v[i].imag),
            "magnitude": float(abs(v[i])),
        }
        for i, bus_id in enumerate(net.bus_ids[1:])
    ]
