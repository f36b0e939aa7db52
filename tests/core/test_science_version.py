"""The science version: job fingerprints, unit keys and resumes.

Pure ``sampled_batched`` runs with ``noise > 0`` draw their noise flips as
geometric gaps (science version 2), so the same config now follows another
trajectory than it did under the per-move uniform draw (version 1).  The
version keeps the two apart:

* the job fingerprint and the checkpoint unit key hash it, so a cached
  result or a checkpoint directory of the old draw is never reused, while
  every other regime keeps its keys byte for byte;
* every run-state snapshot carries it, so a pinned snapshot
  (``repro resume``, ``evolve --resume-from``) of the old draw is refused
  with an error naming the regime and both versions.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.__main__ import cli, main
from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.core.evolution import run_event_driven
from repro.core.runstate import checkpoint_scope, science_version, unit_key
from repro.io.run_checkpoint import (
    RunCheckpointer,
    load_run_checkpoint,
    save_run_checkpoint,
)
from repro.service import JobSpec

KEYED = dict(
    memory_steps=2, n_ssets=16, generations=4000, seed=7, record_events=False,
)

#: Keys computed before the science version existed.
UNVERSIONED_KEYS = {
    "pure_sampled": (
        "c5dd154ccc007b079ed93fdd1ef4deaf8ef57e4c39e6e2344f695a98adabac18",
        "54bce6454d164695748b3f212401c57e7f78971c3aaa8bfca44132d7accc9d91",
    ),
    "deterministic": (
        "47c1a2459206d7b7f318654117aa0f18eaf5a2373698035d02ab65cf141220e7",
        "ae4291fa9656cc0fdda55bd585c1453a3b3e60873cf5b6cad5cf63ac2cee2c75",
    ),
    "expected": (
        "9c3fac1d2d50215cf58d24c472366c5a486bbb9be137fbc58e2ef65e7c6549ea",
        "f67e4afff674e32aa99dc32b026ee3a4c06b7bc0b7f9c0bf033136cda4d585bd",
    ),
    "mixed_sampled": (
        "929878ebaf6f7bc68af05f9d9b18c0ba57eb1608b9c50c2e5bc1df89aaf3361a",
        "3e7a38a70a1845a358613b167aefbf90f90fa97a2147d497a74715a71ad79e9d",
    ),
}

REGIMES = {
    "pure_sampled": dict(noise=0.01, sampled_batched=True),
    "deterministic": {},
    "expected": dict(noise=0.01, expected_fitness=True),
    "mixed_sampled": dict(
        noise=0.01, mixed_strategies=True, sampled_batched=True
    ),
}


def keys(regime: str) -> tuple[str, str]:
    config = EvolutionConfig(**KEYED, **REGIMES[regime])
    return (
        JobSpec(configs=(config,), backend="event").fingerprint(),
        unit_key([config.to_dict()]),
    )


class TestKeys:
    def test_versions(self):
        for regime, overrides in REGIMES.items():
            config = EvolutionConfig(**KEYED, **overrides)
            expected = 2 if regime == "pure_sampled" else 1
            assert science_version(config.to_dict()) == expected
        scalar = EvolutionConfig(**KEYED, noise=0.01)
        assert science_version(scalar.to_dict()) == 1

    def test_pure_sampled_keys_moved(self):
        fingerprint, unit = keys("pure_sampled")
        old_fingerprint, old_unit = UNVERSIONED_KEYS["pure_sampled"]
        assert fingerprint != old_fingerprint
        assert unit != old_unit

    @pytest.mark.parametrize(
        "regime", ["deterministic", "expected", "mixed_sampled"]
    )
    def test_other_keys_unchanged(self, regime):
        assert keys(regime) == UNVERSIONED_KEYS[regime]


# -- resumes -----------------------------------------------------------------

#: A small deterministic shape with two snapshots.
SMALL = dict(
    memory_steps=2, n_ssets=8, generations=500, rounds=16, seed=11,
    checkpoint_every=200,
)
PURE = dict(SMALL, noise=0.05, sampled_batched=True)


def checkpointed(root, configs):
    """Run ``configs`` as one sweep into a checkpoint directory under
    ``root`` and return the results and the unit directory."""
    backend = "ensemble" if len(configs) > 1 else "event"
    with checkpoint_scope(RunCheckpointer(root)):
        results = run_sweep(configs, backend=backend)
    (unit_dir,) = root.glob("unit-*")
    return results, unit_dir


def rewrite_version(unit_dir, version):
    """Rewrite every snapshot of ``unit_dir`` as written under science
    ``version`` (``None``: the field is absent, as before versioning)."""
    for snapshot in unit_dir.glob("gen-*"):
        meta, arrays = load_run_checkpoint(snapshot)
        meta.pop("science_version", None)
        if version is not None:
            meta["science_version"] = version
        save_run_checkpoint(snapshot, meta, arrays)


def assert_identical(a, b):
    assert a.events == b.events
    assert (a.n_pc_events, a.n_adoptions, a.n_mutations) == (
        b.n_pc_events, b.n_adoptions, b.n_mutations,
    )
    assert np.array_equal(
        a.population.strategy_matrix(), b.population.strategy_matrix()
    )


class TestResume:
    @pytest.mark.parametrize("lanes", [1, 2], ids=["run", "ensemble"])
    def test_snapshots_carry_the_version(self, tmp_path, lanes):
        configs = [
            EvolutionConfig(**dict(PURE, seed=11 + i)) for i in range(lanes)
        ]
        _, unit_dir = checkpointed(tmp_path / "ckpt", configs)
        for snapshot in unit_dir.glob("gen-*"):
            meta, _ = load_run_checkpoint(snapshot)
            assert meta["science_version"] == 2

    @pytest.mark.parametrize("lanes", [1, 2], ids=["run", "ensemble"])
    @pytest.mark.parametrize("saved", [None, 1], ids=["missing", "one"])
    def test_old_pure_sampled_snapshot_is_refused(
        self, tmp_path, capsys, lanes, saved
    ):
        configs = [
            EvolutionConfig(**dict(PURE, seed=11 + i)) for i in range(lanes)
        ]
        _, unit_dir = checkpointed(tmp_path / "ckpt", configs)
        rewrite_version(unit_dir, saved)
        assert cli(["resume", str(unit_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "science version 1 of the pure sampled_batched noise" in err
        assert "runs version 2" in err

    def test_evolve_resume_from_refuses_it_too(self, tmp_path, capsys):
        _, unit_dir = checkpointed(
            tmp_path / "ckpt", [EvolutionConfig(**PURE)]
        )
        rewrite_version(unit_dir, None)
        args = [
            "evolve", "--memory", "2", "--ssets", "8", "--generations",
            "500", "--rounds", "16", "--seed", "11", "--checkpoint-every",
            "200", "--noise", "0.05", "--sampled-batched", "--resume-from",
            str(unit_dir),
        ]
        assert cli(args) == 2
        assert "science version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("lanes", [1, 2], ids=["run", "ensemble"])
    def test_unversioned_deterministic_snapshot_resumes_bitwise(
        self, tmp_path, capsys, lanes
    ):
        configs = [
            EvolutionConfig(**dict(SMALL, seed=11 + i)) for i in range(lanes)
        ]
        root = tmp_path / "ckpt"
        clean, unit_dir = checkpointed(root, configs)
        rewrite_version(unit_dir, None)
        # Through the checkpoint directory (the unit key is unchanged) ...
        with checkpoint_scope(RunCheckpointer(root)):
            resumed = run_sweep(
                configs, backend="ensemble" if lanes > 1 else "event"
            )
        for a, b in zip(resumed, clean):
            assert a.resumed_from_generation == 400
            assert_identical(a, b)
        # ... and pinned, through `repro resume`.
        rewrite_version(unit_dir, None)
        assert main(["resume", str(unit_dir)]) == 0
        out = capsys.readouterr().out
        assert "resumed-from=400" in out
        lines = [l for l in out.splitlines() if l.startswith("dominant:")]
        assert len(lines) == lanes
        for line, result in zip(lines, clean):
            assert line.endswith(
                f"({result.n_pc_events} PC events, "
                f"{result.n_mutations} mutations)"
            )

    def test_old_sampled_unit_directory_is_not_picked_up(self, tmp_path):
        config = EvolutionConfig(**PURE)
        clean = run_event_driven(config)
        root = tmp_path / "ckpt"
        _, unit_dir = checkpointed(root, [config])
        # The same snapshots, filed as a build before versioning filed
        # them: under the unit key without the version, and without the
        # meta field.
        rewrite_version(unit_dir, None)
        unversioned_unit = (
            "e71b9b39e1a06cebdc6d1ff85f316388c12603a321b1cbde1667ae63b9915b99"
        )
        assert unit_key([config.to_dict()]) != unversioned_unit
        old_dir = root / f"unit-{unversioned_unit[:12]}"
        shutil.move(unit_dir, old_dir)
        with checkpoint_scope(RunCheckpointer(root)):
            rerun = run_event_driven(config)
        assert rerun.resumed_from_generation is None
        assert_identical(rerun, clean)
        assert sorted(p.name for p in root.iterdir()) == sorted(
            [old_dir.name, unit_dir.name]
        )
