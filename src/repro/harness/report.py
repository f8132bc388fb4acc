"""Result-table rendering for the per-figure harnesses.

Each figure job produces rows ``(label, metric -> value)`` plus the
paper's reference number for the same cell, so EXPERIMENTS.md can be
regenerated by running the jobs and diffing columns.
"""
import pandas as pd


def fmt_ms(v: float) -> str:
    return f"{v:,.1f} ms" if v < 1000 else f"{v / 1000:,.2f} s"


def fmt_meps(v: float) -> str:
    return f"{v / 1e6:,.1f}M ev/s"


def table(title: str, rows: list[dict], columns: list[str]) -> str:
    """Render a GitHub-markdown table with a title header."""
    out = [f"### {title}", ""]
    out.append("| " + " | ".join(columns) + " |")
    out.append("|" + "|".join("---" for _ in columns) + "|")
    for r in rows:
        out.append("| " + " | ".join(str(r.get(c, "")) for c in columns) + " |")
    return "\n".join(out) + "\n"


def df_rows(pdf: pd.DataFrame, cols: dict[str, str]) -> list[dict]:
    """Project a result frame into display rows. ``cols`` maps output
    column name -> source column (values passed through ``str``)."""
    return [
        {out: row[src] for out, src in cols.items()} for _, row in pdf.iterrows()
    ]
