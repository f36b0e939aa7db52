#!/usr/bin/env python3
"""Why memory matters: error robustness, from Markov theory to evolution.

The paper motivates longer memories with robustness to execution errors
(Section III.F): "An error ... would be fatal for the TFT strategy, as
any accidental play of defection would shift the pair into a continuously
repeated play of defection" while "Win-Stay Lose-Shift (WSLS) has been
shown to outperform TFT in the presence of errors".

Part one quantifies that claim with the exact Markov engine: long-run
cooperation rates of self-play pairs across error rates.  Part two lets
evolution confirm it — a noisy replicate ensemble on the batched
sampled-fitness fast path (``sampled_batched=True`` over the ensemble
backend, which advances the lanes in waves of one event each and fuses a
wave's sampled games into one vectorised kernel call), reporting which
strategies win at each error rate and whether the winners still cooperate
with themselves.

Run:  python examples/error_robustness.py
"""

import time

from repro import EvolutionConfig, run_sweep
from repro.analysis import classify, format_table, nearest_classic
from repro.core import (
    grim,
    gtft,
    stationary_cooperation_rate,
    tf2t,
    tft,
    wsls,
)

NOISES = (0.0, 0.01, 0.05)
MEMORY_DEPTHS = (1, 2)
RUNS_PER_CELL = 8
MASTER_SEED = 20130521  # the paper's conference date


def label(strategy) -> str:
    if not strategy.is_pure:
        return "<mixed>"
    name = classify(strategy)
    if name is None:
        near, dist = nearest_classic(strategy)
        name = f"~{near}+{dist}"
    return f"{strategy.bits()} ({name})"


def markov_motivation() -> None:
    """Long-run self-play cooperation under increasing error rates."""
    noises = [0.0, 0.005, 0.01, 0.05, 0.1]
    pairs = {
        "TFT": tft(1),
        "WSLS": wsls(1),
        "GRIM": grim(1),
        "TF2T (memory-2)": tf2t(2),
        "GTFT (mixed)": gtft(1 / 3, 1),
    }
    rows = []
    for name, strategy in pairs.items():
        rows.append(
            [name]
            + [
                round(stationary_cooperation_rate(strategy, strategy, eps), 3)
                for eps in noises
            ]
        )
    print(
        format_table(
            ["self-play pair"] + [f"eps={e}" for e in noises],
            rows,
            title="Long-run cooperation rate vs execution error rate",
        )
    )
    print(
        "\nTFT collapses toward 50% under any error rate; WSLS and TF2T "
        "(a memory-two strategy) repair errors and keep cooperating — the "
        "paper's motivation for modelling longer memories.\n"
    )


def evolved_robustness() -> None:
    """Evolve noisy ensembles on the batched sampled-fitness path."""
    rows = []
    for memory in MEMORY_DEPTHS:
        for noise in NOISES:
            configs = [
                EvolutionConfig(
                    memory_steps=memory,
                    n_ssets=16,
                    generations=10_000,
                    noise=noise,
                    # Only the noisy cells are in the sampled regime; the
                    # noise-free baseline keeps the deterministic cache.
                    sampled_batched=noise > 0.0,
                    record_events=False,
                )
                for _ in range(RUNS_PER_CELL)
            ]
            started = time.perf_counter()
            results = run_sweep(
                configs, backend="ensemble", base_seed=MASTER_SEED
            )
            elapsed = time.perf_counter() - started
            # The modal winner across replicates (ties go to the earliest
            # replicate, so the row does not depend on hash order), plus
            # how cooperative the winners stay with themselves at this
            # error rate.
            winners = [result.dominant()[0] for result in results]
            modal = max(winners, key=winners.count)
            coop = sum(
                stationary_cooperation_rate(w, w, noise) for w in winners
            ) / len(winners)
            rows.append(
                [
                    memory,
                    noise,
                    label(modal),
                    f"{winners.count(modal)}/{len(winners)}",
                    f"{coop:.2f}",
                    f"{len(configs) * configs[0].generations / elapsed:,.0f}",
                ]
            )
    print(
        format_table(
            ["memory", "noise", "modal winner", "wins", "coop", "gen/s"],
            rows,
            title=(
                f"Evolved winners vs error rate ({RUNS_PER_CELL} "
                f"replicates/cell, batched sampled fitness)"
            ),
        )
    )
    print(
        "\nAt memory one, noise hands the population to defectors; with "
        "memory two, error-correcting (WSLS-like) strategies keep "
        "cooperation alive — evolution rediscovers the Markov table above."
    )


def main() -> None:
    markov_motivation()
    evolved_robustness()


if __name__ == "__main__":
    main()
