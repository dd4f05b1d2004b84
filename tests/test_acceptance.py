"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criteria 5-7 and 10-11 exercise the synthetic-grammar pipeline; "s=5"
lines run six bit levels (the grammar experiments count splitting rounds
from level 0, so "up to level 5" spans six rounds).  Criteria 8-9 need a
public-domain-novel-sized text; with no network in the build environment
an English-like Zipf/Markov corpus of the same scale stands in, generated
deterministically by tagsplit.synth.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from tagsplit import (
    ClassMatrix,
    ClusterConfig,
    acmi,
    build_vocabulary,
    class_matrix,
    cluster,
    count_bigrams,
    oracle_min_moves,
)
from tagsplit import elman, objective
from tagsplit.bigram import ContextBank, apply_move
from tagsplit.objective import batch_deltas, delta_acmi
from tagsplit.cli import main
from tagsplit.splitter import LevelStats
from tagsplit.synth import markov_text
from conftest import bank_from, context_vectors, random_instance

ELMAN_LEVELS = 6  # splitting rounds covering grammar levels 0..5

# every clustering run from criteria 5-9 lands here for criterion 10
RUN_REGISTRY: list[tuple[str, list[LevelStats]]] = []


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def make_elman_instance(n_sentences: int, seed: int):
    tokens = elman.generate(n_sentences, seed=seed)
    vocab, stream = build_vocabulary([tokens], 29)
    store = count_bigrams(stream, vocab.size)
    return vocab, store


def registered_cluster(label: str, vocab, store, config: ClusterConfig):
    tags, stats = cluster(vocab, store, config)
    RUN_REGISTRY.append((label, stats))
    return tags, stats


@pytest.fixture(scope="module")
def elman_quality_runs():
    """Criterion 5/6 grid: labels for every (size, seed, method)."""
    t0 = time.perf_counter()
    results = {}
    for n in (10_000, 2_000, 1_000):
        methods = ("znr", "znrp", "m") if n == 1_000 else ("znr", "znrp")
        for seed in (1, 2, 3):
            vocab, store = make_elman_instance(n, seed)
            for method in methods:
                config = ClusterConfig(strategy=method, levels=ELMAN_LEVELS, seed=seed)
                tags, _ = registered_cluster(f"elman-{n}-{seed}-{method}", vocab, store, config)
                results[(n, seed, method)] = elman.evaluate(tags)
    results["elapsed"] = time.perf_counter() - t0
    return results


@pytest.fixture(scope="module")
def bench_corpus():
    sentences = markov_text(140_000, n_types=10_000, n_states=24, seed=7)
    return [w for s in sentences for w in s]


def vocab_of_size(tokens, V_target: int):
    """Pick top_k so the vocabulary (lexical + pseudo groups) hits V_target."""
    k = V_target
    for _ in range(12):
        vocab, stream = build_vocabulary([tokens], k)
        if vocab.size == V_target:
            return vocab, stream
        k -= vocab.size - V_target
    raise AssertionError(f"could not reach V={V_target} (last V={vocab.size})")


@pytest.fixture(scope="module")
def speed_comparison(bench_corpus):
    vocab, stream = vocab_of_size(bench_corpus, 512)
    store = count_bigrams(stream, vocab.size)
    runs = [("speed-znrp", ClusterConfig(strategy="znrp", levels=10))] + [
        (f"speed-m-{seed}", ClusterConfig(strategy="m", levels=10, seed=seed))
        for seed in (1, 2, 3)
    ]
    wall, cpu = [], []
    for name, config in runs:
        t0, c0 = time.perf_counter(), time.process_time()
        _, stats = cluster(vocab, store, config)
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        RUN_REGISTRY.append((name, stats))
    return wall, cpu


def test_criterion_1_and_2_delta_oracle_and_cost(plogp_cells):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(20):
        C = (2, 4, 8, 16)[i % 4]
        stream, assignment, store = random_instance(1000 + i, C=C)
        assignment = assignment % C
        matrix = class_matrix(store, assignment, C)
        bank = ContextBank(store, assignment, C)
        base = acmi(matrix)
        over_budget = 0
        for w in range(store.V):
            frm = int(assignment[w])
            for to in range(C):
                if to == frm:
                    continue
                plogp_cells.clear()
                d = delta_acmi(matrix, bank, w, frm, to)
                if sum(plogp_cells) > 8 * (C - 1):
                    over_budget += 1
                after = ClassMatrix(C, matrix.counts.copy())
                apply_move(after, bank, w, frm, to)
                worst = max(worst, abs(d - (acmi(after) - base)))
                checked += 1
        assert over_budget == 0
    elapsed = time.perf_counter() - t0
    check(1, "delta oracle", worst <= 1e-9 and elapsed < 10.0,
          f"{checked} moves, worst |err| {worst:.2e}, {elapsed:.1f}s")
    check(2, "log-eval cost bound", True,
          f"max per call <= 8(C-1) over {checked} calls")


def test_criterion_2_kernel_cost(monkeypatch):
    # The search scores moves with batch_deltas, not with the oracle above,
    # so criterion 2 is checked on the counts it passes to h(n) = n lg n,
    # one log each: 4 per nonzero off-corner context cell (rows or columns
    # a and b, after and before the move) and 16 per word for the four
    # corners and four marginals, after and before.  The kernel takes those
    # 16 even where they are zero, where the oracle skips zero cells and
    # takes each marginal inside its cells' terms, so its bound differs
    # from the oracle's 8(C-1): 16 per word at C=2, and at most
    # 4 * 2(C-2) + 16 = 8C.
    passed = []
    h = objective._h

    def counted(n):
        passed.append(len(n))
        return h(n)

    monkeypatch.setattr(objective, "_h", counted)
    calls = 0
    for C in (2, 4, 16, 64, 1024):
        _, assignment, store = random_instance(2000 + C, V=40, length=800, C=C)
        matrix = class_matrix(store, assignment, C)
        words = np.arange(store.V)
        frm = assignment[words]
        # m, the nonzero off-corner cells, from each word's scalar context
        m = 0
        for w, a in zip(words, frm):
            ctx = context_vectors(store, assignment, w, C)
            off = np.ones(C, dtype=bool)
            off[[a, a ^ 1]] = False
            m += int(np.count_nonzero(ctx.left[off]) + np.count_nonzero(ctx.right[off]))
        for source in ("rows", "edges"):
            passed.clear()
            batch_deltas(matrix, bank_from(source, store, assignment, C), words, frm)
            assert passed == [4 * m + 16 * len(words)]
            assert passed[0] <= 8 * C * len(words)
            calls += 1
    check(2, "log-eval cost bound, kernel", True,
          f"4 per off-corner cell + 16 per word <= 8C over {calls} calls")


def test_criterion_3_matrix_integrity():
    rng = np.random.default_rng(42)
    stream, assignment, store = random_instance(777, V=60, length=2000, C=16)
    C = 16
    assignment = (assignment % C).astype(np.int32)
    matrix = class_matrix(store, assignment, C)
    bank = ContextBank(store, assignment, C)
    for _ in range(10_000):
        w = int(rng.integers(0, store.V))
        frm = int(assignment[w])
        to = int(rng.integers(0, C))
        if to == frm:
            to = (to + 1) % C
        apply_move(matrix, bank, w, frm, to)
        bank.move(w, frm, to)
    rebuilt = class_matrix(store, assignment, C)
    ok = (
        np.array_equal(matrix.counts, rebuilt.counts)
        and np.array_equal(matrix.row, rebuilt.row)
        and np.array_equal(matrix.col, rebuilt.col)
    )
    check(3, "matrix integrity after 10k moves", ok)


def test_criterion_4_move_count_simulation():
    t0 = time.perf_counter()
    mean = oracle_min_moves(1000, (700, 300), trials=100, seed=1)
    elapsed = time.perf_counter() - t0
    check(4, "move-count simulation", 479 <= mean <= 499 and elapsed < 1.0,
          f"mean {mean:.1f}, {elapsed:.2f}s")


def test_criterion_5_elman_robustness(elman_quality_runs):
    failures = []
    for n in (10_000, 2_000):
        for seed in (1, 2, 3):
            for method in ("znr", "znrp"):
                rep = elman_quality_runs[(n, seed, method)]
                if not (rep.level1_separation and rep.error_label == "none"):
                    failures.append((n, seed, method, rep.error_label))
    elapsed = elman_quality_runs["elapsed"]
    ok = not failures and elapsed < 120.0
    check(5, "elman robustness at 10k/2k", ok,
          f"failures: {failures}" if failures else f"12/12 clean, {elapsed:.1f}s")


def test_criterion_6_elman_degradation(elman_quality_runs):
    labels = [
        elman_quality_runs[(1_000, seed, method)].error_label
        for seed in (1, 2, 3)
        for method in ("znr", "znrp", "m")
    ]
    degraded = [l for l in labels if l != "none"]
    check(6, "elman degradation at 1k", len(degraded) >= 1, f"labels: {labels}")


def test_criterion_7_cli_determinism(tmp_path):
    corpus = tmp_path / "elman10k.txt"
    rc = main(["generate-elman", "--sentences", "10000", "--seed", "1",
               "--out", str(corpus)])
    assert rc == 0
    digests = {}
    for method in ("znrp", "znr"):
        pair = []
        for run in (1, 2):
            d = tmp_path / f"{method}{run}"
            d.mkdir()
            rc = main([
                "cluster", "--in", str(corpus), "--top-words", "29",
                "--levels", str(ELMAN_LEVELS), "--method", method,
                "--tags", str(d / "tags.tsv"), "--stats", str(d / "stats.csv"),
            ])
            assert rc == 0
            pair.append((d / "tags.tsv").read_bytes())
        digests[method] = pair[0] == pair[1]
    check(7, "byte-identical cli reruns", all(digests.values()), str(digests))


def test_criterion_8_speed_ratio(speed_comparison):
    # wall seconds decide; the process CPU seconds are printed beside them
    # to tell a slow host from a slow search
    (t_znrp, *t_m), (c_znrp, *c_m) = speed_comparison
    floor = 0.5 * min(t_m)
    check(8, "speed ratio znrp vs m", t_znrp <= floor,
          f"znrp {t_znrp:.1f}s vs m runs {[round(t,1) for t in t_m]}s "
          f"(ratio {min(t_m)/t_znrp:.2f}x, floor 2x; CPU znrp {c_znrp:.2f}s "
          f"vs m runs {[round(c, 2) for c in c_m]}s, ratio {min(c_m)/c_znrp:.2f}x)")


def test_criterion_9_random_init_spread(bench_corpus):
    vocab, stream = vocab_of_size(bench_corpus, 800)
    store = count_bigrams(stream, vocab.size)
    V = vocab.size

    tags, _ = registered_cluster(
        "spread-znr", vocab, store, ClusterConfig(strategy="znr", levels=1)
    )
    sizes = np.bincount([r.class_id for r in tags.rows], minlength=2)
    minority = int(sizes.min())

    partitions = set()
    for seed in range(1, 11):
        tags, _ = registered_cluster(
            f"spread-m-{seed}", vocab, store,
            ClusterConfig(strategy="m", levels=1, seed=seed),
        )
        bits = tuple(r.class_id for r in tags.rows)
        if bits[0] == 1:
            bits = tuple(1 - b for b in bits)
        partitions.add(bits)

    ok_minority = 0.05 * V <= minority <= 0.45 * V
    ok_spread = len(partitions) >= 2
    check(9, "random-init spread", ok_minority and ok_spread,
          f"znr minority {minority}/{V}, {len(partitions)} distinct m partitions")


def test_criterion_10_monotonicity_everywhere(elman_quality_runs, speed_comparison):
    violations = []
    for label, stats in RUN_REGISTRY:
        for s in stats:
            if s.acmi_after < s.acmi_before - 1e-12:
                violations.append((label, s.level, "level"))
            trace = [s.acmi_before] + s.acmi_trace
            for a, b in zip(trace, trace[1:]):
                if b < a - 1e-12:
                    violations.append((label, s.level, "trace"))
                    break
    n_runs = len(RUN_REGISTRY)
    check(10, "monotonicity suite", n_runs >= 25 and not violations,
          f"{n_runs} runs audited" + (f"; violations: {violations[:5]}" if violations else ""))


def test_criterion_11_pinning():
    vocab, store = make_elman_instance(10_000, 1)
    verbs = sorted(w for w, p in elman.ELMAN_GOLD.pos.items() if p == "verb")
    config = ClusterConfig(
        strategy="znrp", levels=ELMAN_LEVELS, pinned={w: "1" for w in verbs}
    )
    tags, stats = cluster(vocab, store, config)
    bits = tags.bits_by_surface()
    prefix_ok = all(bits[w].startswith("1") for w in verbs)

    baseline_config = ClusterConfig(strategy="znrp", levels=ELMAN_LEVELS)
    _, baseline_stats = cluster(vocab, store, baseline_config)
    shape_ok = len(stats) == len(baseline_stats) and all(
        s.level == b.level for s, b in zip(stats, baseline_stats)
    )

    pinned_ids = {vocab.index[w] for w in verbs}
    moved = set()
    for s in stats:
        moved.update(s.moved_words)
    never_moved = not (pinned_ids & moved)

    check(11, "pinning honored", prefix_ok and shape_ok and never_moved,
          f"prefix {prefix_ok}, shape {shape_ok}, never moved {never_moved}")
