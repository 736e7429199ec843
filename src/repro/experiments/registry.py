"""Experiment registry: every paper table/figure, addressable by id."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.analysis.report import render_table
from repro.analysis.state_table import state_reduction_table
from repro.analysis.treeloss import (
    example_figure1_tree,
    normalized_fec_traffic,
    prob_all_receive,
)
from repro.errors import ConfigError
from repro.experiments import session_sim, traffic_sim


def _render_fig1(n_packets: Optional[int], seed: int) -> str:
    tree = example_figure1_tree()
    worst_node, worst_loss = tree.worst_receiver()
    traffic = normalized_fec_traffic(tree, k=16)
    rows = [
        (node, f"{tree.total_loss(node) * 100:.2f}%", f"{traffic[node]:.4f}")
        for node in tree.nodes()
    ]
    header = (
        f"=== fig1: Example Delivery Tree / Non-Scoped FEC traffic ===\n"
        f"P(all nodes receive a given packet) = {prob_all_receive(tree) * 100:.1f}% "
        f"(paper: 27.0%)\n"
        f"worst receiver X = node {worst_node}, total loss "
        f"{worst_loss * 100:.2f}% (paper: 9.73%)\n"
    )
    return header + render_table(
        ["node", "total loss", "normalized FEC traffic"], rows
    )


def _render_fig8(n_packets: Optional[int], seed: int) -> str:
    rows = []
    for row in state_reduction_table():
        rows.append(
            (
                row.level,
                row.receivers_per_zone,
                row.n_zones,
                row.n_receivers,
                row.rtts_maintained,
                f"{row.scoped_traffic} / {row.nonscoped_traffic}",
                f"{row.scoped_state} / {row.nonscoped_state}",
            )
        )
    return "=== fig8: Receiver state reduction via indirect RTT estimation ===\n" + render_table(
        [
            "level",
            "recv/zone",
            "zones",
            "receivers",
            "RTTs/receiver",
            "traffic scoped/non-scoped",
            "state scoped/non-scoped",
        ],
        rows,
    )


def _render_rtt_fig(role: str, figure_id: str) -> Callable[[Optional[int], int], str]:
    def render(n_packets: Optional[int], seed: int) -> str:
        result = session_sim.run_rtt_experiment(role=role, seed=seed)
        lines = [
            f"=== {figure_id}: est/actual RTT ratios, fake NACKs from a {role} "
            f"(sender node {result.sender}) ==="
        ]
        for rnd in result.rounds:
            lines.append(
                f"  NACK #{rnd.nack_index} t={rnd.time:.1f}s: "
                f"median ratio={rnd.median_ratio():.4f} "
                f"within 5%={rnd.fraction_within(0.05) * 100:.0f}% "
                f"within 10%={rnd.fraction_within(0.10) * 100:.0f}% "
                f"unresolved={len(rnd.unresolved)}"
            )
        lines.append(f"  improves over time: {result.improves_over_time()}")
        return "\n".join(lines)

    return render


def _render_traffic_fig(figure_id: str) -> Callable[[Optional[int], int], str]:
    def render(n_packets: Optional[int], seed: int) -> str:
        return traffic_sim.figure(figure_id, n_packets=n_packets, seed=seed).render()

    return render


def _render_scaling(n_packets: Optional[int], seed: int) -> str:
    from repro.experiments.session_scaling import growth_exponent, scaling_sweep

    points = scaling_sweep(seed=seed)
    lines = ["=== scaling: session traffic vs session size (§5 / Figure 8, measured) ==="]
    for p in points:
        lines.append(
            f"  {p.protocol:9s} members={p.n_members:4d} "
            f"session bytes/member={p.session_bytes_per_member:10.0f} "
            f"max RTT state={p.max_rtt_state}"
        )
    srm = [p for p in points if p.protocol == "SRM"]
    sharq = [p for p in points if p.protocol == "SHARQFEC"]
    lines.append(
        f"  per-member growth exponents: SRM={growth_exponent(srm):.2f} "
        f"SHARQFEC={growth_exponent(sharq):.2f}"
    )
    return "\n".join(lines)


def _render_latejoin(n_packets: Optional[int], seed: int) -> str:
    from repro.experiments.late_join import run_late_join

    packets = n_packets if n_packets is not None else 128
    lines = ["=== latejoin: localization of late-join recovery traffic (§7) ==="]
    for scoping in (True, False):
        r = run_late_join(scoping, n_packets=packets, seed=seed)
        lines.append(
            f"  {r.protocol:14s} complete={r.complete} "
            f"fec@local_peer={r.fec_at_local_peer} "
            f"fec@remote_peer={r.fec_at_remote_peer} "
            f"local/remote={r.localization_ratio:.2f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    figure_id: str
    description: str
    render: Callable[[Optional[int], int], str]


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment("fig1", "Tree loss analysis + non-scoped FEC traffic (§3.1)", _render_fig1),
    "fig8": Experiment("fig8", "State reduction table for the national hierarchy (§5.1)", _render_fig8),
    "fig11": Experiment("fig11", "RTT estimation accuracy, level-1 sender (§6.1)", _render_rtt_fig("head", "fig11")),
    "fig12": Experiment("fig12", "RTT estimation accuracy, level-2 sender (§6.1)", _render_rtt_fig("child", "fig12")),
    "fig13": Experiment("fig13", "RTT estimation accuracy, level-3 sender (§6.1)", _render_rtt_fig("grandchild", "fig13")),
    **{
        figure_id: Experiment(figure_id, description, _render_traffic_fig(figure_id))
        for figure_id, (_title, description, _kind, _variants) in traffic_sim.FIGURES.items()
    },
    # Beyond the paper's figures: measured versions of its scaling and
    # late-join arguments.
    "scaling": Experiment("scaling", "Measured session-traffic scaling, SRM vs SHARQFEC (§5)", _render_scaling),
    "latejoin": Experiment("latejoin", "Late-join recovery localization (§7)", _render_latejoin),
}


def run_experiment(figure_id: str, n_packets: Optional[int] = None, seed: int = 1) -> str:
    """Render one experiment's reproduction as text."""
    experiment = EXPERIMENTS.get(figure_id)
    if experiment is None:
        raise ConfigError(
            f"unknown experiment {figure_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return experiment.render(n_packets, seed)
