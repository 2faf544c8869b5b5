"""Plain-text result tables: one header line, then `node,value` rows.

Formatting is fixed at 12 significant digits so identical runs produce
byte-identical files.
"""
from __future__ import annotations


def format_value(v):
    return f"{float(v):.11e}"


def serialize_centrality(cv, labels, extras=None):
    parts = [f"kind={cv.kind}",
             f"normalized={'true' if cv.normalized else 'false'}"]
    if extras:
        parts.extend(f"{k}={v}" for k, v in extras.items())
    lines = ["# " + " ".join(parts)]
    for lab, v in zip(labels, cv.values):
        lines.append(f"{lab},{format_value(v)}")
    return "\n".join(lines) + "\n"
