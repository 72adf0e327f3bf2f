"""Consolidated report generation from ``benchmarks/results/``.

Each benchmark writes one plain-text table per figure/ablation; this module
stitches them into a single markdown report (with a table of contents and
the figure-to-paper mapping), so a whole reproduction run can be read — or
committed — as one document.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

#: result-file prefix → (section title, paper reference)
SECTIONS: List[Tuple[str, str, str]] = [
    ("fig3_", "Figure 3 — improvement over HEFT and MCT", "§V-E, Fig. 3"),
    ("fig4_", "Figure 4 — transfer learning, 4 CPUs", "§V-F, Fig. 4"),
    ("fig5_", "Figure 5 — transfer learning, 2 CPU + 2 GPU", "§V-F, Fig. 5"),
    ("fig6_", "Figure 6 — transfer learning, 4 GPUs", "§V-F, Fig. 6"),
    ("fig7_", "Figure 7 — inference time", "§V-G, Fig. 7"),
    ("ablation_window", "Ablation — window size w", "§V-D"),
    ("ablation_gcn", "Ablation — GCN depth g", "§V-D"),
    ("ablation_entropy", "Ablation — entropy coefficient", "§V-D"),
    ("ablation_unroll", "Ablation — unroll length", "§V-D"),
    ("ablation_noise", "Ablation — noise models", "§V-B (future work)"),
    ("ablation_baselines", "Ablation — extended baselines", "§II/V-C"),
    ("ablation_comm", "Ablation — communication delays", "§III-A assumption"),
    ("ablation_sparse", "Ablation — sparse window state", "scaling extension"),
]


def collect_results(results_dir: str) -> Dict[str, str]:
    """Read every ``*.txt`` table in ``results_dir`` (name → contents)."""
    if not os.path.isdir(results_dir):
        raise FileNotFoundError(f"no results directory at {results_dir!r}")
    out: Dict[str, str] = {}
    for name in sorted(os.listdir(results_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(results_dir, name)) as fh:
                out[name[: -len(".txt")]] = fh.read().rstrip("\n")
    return out


def generate_report(
    results_dir: str,
    title: str = "READYS reproduction — benchmark report",
) -> str:
    """Render all collected tables as one markdown document."""
    results = collect_results(results_dir)
    if not results:
        raise ValueError(f"no result tables found in {results_dir!r}")
    lines: List[str] = [f"# {title}", ""]

    used = set()
    for prefix, section_title, paper_ref in SECTIONS:
        matching = [k for k in results if k.startswith(prefix)]
        if not matching:
            continue
        lines.append(f"## {section_title}")
        lines.append("")
        lines.append(f"*Paper reference: {paper_ref}.*")
        lines.append("")
        for key in matching:
            used.add(key)
            if len(matching) > 1:
                lines.append(f"### {key}")
                lines.append("")
            lines.append("```")
            lines.append(results[key])
            lines.append("```")
            lines.append("")

    leftover = sorted(set(results) - used)
    if leftover:
        lines.append("## Other results")
        lines.append("")
        for key in leftover:
            lines.append(f"### {key}")
            lines.append("")
            lines.append("```")
            lines.append(results[key])
            lines.append("```")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_report(
    results_dir: str,
    output_path: str,
    title: str = "READYS reproduction — benchmark report",
) -> str:
    """Generate and write the report; returns the output path."""
    report = generate_report(results_dir, title=title)
    directory = os.path.dirname(os.path.abspath(output_path))
    os.makedirs(directory, exist_ok=True)
    with open(output_path, "w") as fh:
        fh.write(report)
    return output_path
