"""Top-down binary splitting of word classes by greedy ACMI ascent.

Each level appends one bit to every word's class id: class c splits into
children 2c (bit 0) and 2c+1 (bit 1), and a local search moves words
between sibling children while the move improves average class mutual
information.  The three strategies differ only in initialization and in
the group each search step picks its best move from:

  m     random initial bit per word per level; one group, so each step
        commits the single best move over all words.
  znr   non-random initialization: every word starts in the bit-0 child
        and the bit-1 child starts empty, so the search only has to exile
        the minority.  One group, as for m.
  znrp  znr initialization, one group per parent class, so each step
        commits the best move of every class being split.

Every eligible word's move delta is kept across steps (ClusterState.delta),
and a step rescores in one batch, against the state frozen at step start,
only the eligible words of the sibling pairs (2p, 2p+1) that a move since
their last scoring disturbed.  A move of w disturbs its own pair and every
pair holding a successor or predecessor of w; it leaves every other
word's eligibility, corner cells, marginals and context rows as they
were, and changes an off-corner cell of such a word only where w has a
neighbour in that word's pair.  A word's delta is summed over its own
cells in a fixed order, so a kept delta is bit-identical to a rescored
one and the picks are those of a full rescore.  The step then commits
the best move of each group if it beats epsilon (ties go to the lowest
word id).  A lone move's frozen delta is exact, so it is booked as is.  A
batch of two or more is booked exactly from the h-terms of its touched
sibling classes' rows and columns, summed before and after it commits
(line_terms); if it lowered the objective, its moves are retracted one at
a time, lowest-scoring first, each booked the same way over its one
sibling pair, until the batch no longer sits below the step-start value.
Retractions are moves, so they disturb pairs by the same rule.  acmi()
runs only once at the start and once at the end of each level, the
second time as the drift guard.

Each level's ContextBank holds its int32 class ids and decides once, from
the store and the level alone, where the words' context counts come
from: dense V x C rows while they fit in a bound per bigram pair or under
the memory the 1024-class matrix of level 10 takes, the bigram edges
otherwise, as at level 10 (see bigram.keeps_rows).  A move reads the
word's mass per class from the bank, and the classes where that mass is
nonzero are the ones it disturbs.  cluster() drops each level's state before it
builds the next.

A word alone in its class rides down with bit 0 and stays alone: moves
only cross sibling classes and a lone word is never eligible.  Its tag
therefore ends at the first level where it is alone, which cluster()
reads back from the final class ids, but never before its pin path ends.
Pinned words take their prescribed bits while their path lasts,
contribute fully to all counts, and are never moved.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bigram import MAX_CLASSES, MAX_LEVELS, BigramStore, ContextBank, apply_move, class_matrix
from .corpus import Vocabulary
from .errors import ConfigError, ConsistencyError, IngestionError
from .objective import EPSILON, acmi, batch_deltas, line_terms
# not called here; perfbench/invoke.py wraps these on this module by name
from .objective import delta_acmi, pair_before_sum  # noqa: F401

# largest allowed gap between the running ACMI and a full recompute at the
# end of a level: the bound every delta is tested to
DRIFT_TOLERANCE = 1e-9

STRATEGY_RANDOM = "m"
STRATEGY_NONRANDOM = "znr"
STRATEGY_PARALLEL = "znrp"
STRATEGIES = (STRATEGY_RANDOM, STRATEGY_NONRANDOM, STRATEGY_PARALLEL)


@dataclass
class ClusterConfig:
    """Knobs for a clustering run; see module docstring for strategies."""

    strategy: str = STRATEGY_PARALLEL
    levels: int = MAX_LEVELS
    seed: int = 0
    epsilon: float = EPSILON
    pinned: dict[str, str] | None = None  # surface -> bit path, cut to `levels`

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if not 1 <= self.levels <= MAX_LEVELS:
            raise ConfigError(
                f"levels must be between 1 and {MAX_LEVELS} "
                f"(at most 2^{MAX_LEVELS} = {MAX_CLASSES} classes), got {self.levels}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(
                f"epsilon must be finite and non-negative, got {self.epsilon}"
            )
        if self.pinned:
            for surface, path in self.pinned.items():
                if not path or set(path) - {"0", "1"}:
                    raise ConfigError(
                        f"pinned path for {surface!r} must be a non-empty bit string, "
                        f"got {path!r}"
                    )


@dataclass(frozen=True)
class TagRow:
    surface: str
    bits: str
    frequency: int
    class_id: int


@dataclass
class TagTable:
    rows: list[TagRow]

    def bits_by_surface(self) -> dict[str, str]:
        return {r.surface: r.bits for r in self.rows}

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class LevelStats:
    level: int
    iterations: int
    committed_moves: int
    retracted_moves: int
    acmi_before: float
    acmi_after: float
    wall_time: float
    capped: bool = False
    acmi_trace: list[float] = field(default_factory=list)
    moved_words: list[int] = field(default_factory=list)
    words_scored: int = 0  # rescored over all steps
    words_eligible: int = 0  # chosen from over all steps


def init_level(
    class_of: np.ndarray,
    level: int,
    strategy: str,
    seed: int = 0,
    pinned_bits: dict[int, int] | None = None,
) -> np.ndarray:
    """Append every word's next bit to its level-`level` class id.

    Returns the int32 class ids of level `level` + 1.  Strategy m draws
    bits from a generator seeded by (seed, level); znr and znrp put every
    word in the bit-0 child.  A word alone in its class rides along with
    bit 0, so its class is carried down unchanged; pinned_bits overrides
    both.
    """
    if level + 1 > MAX_LEVELS:
        raise ConfigError(
            f"cannot split beyond level {MAX_LEVELS} ({MAX_CLASSES}-class cap)"
        )
    V = len(class_of)
    if strategy == STRATEGY_RANDOM:
        rng = np.random.default_rng((seed, level))
        bits = rng.integers(0, 2, V, dtype=np.int32)
    elif strategy in (STRATEGY_NONRANDOM, STRATEGY_PARALLEL):
        bits = np.zeros(V, dtype=np.int32)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    bits[np.bincount(class_of)[class_of] == 1] = 0
    if pinned_bits:
        for w, b in pinned_bits.items():
            bits[w] = b
    return (class_of.astype(np.int32) << 1) + bits


class ClusterState:
    """Mutable search state for one level: class ids, matrix, context bank.

    Single-writer: commits are serialized; scoring reads a consistent
    snapshot between commits.  moved lists the committed words in order.
    assignment is the class ids the bank holds and alone writes.
    delta[w] is w's move delta as last scored, current unless dirty flags
    a class of w's sibling pair (see the module docstring).  words_scored
    and words_eligible count the words rescored and chosen from over the
    level's steps.  run_level stops after max_iterations steps, 4 * V.
    """

    def __init__(
        self,
        store: BigramStore,
        assignment: np.ndarray,
        level: int,
        pinned_mask: np.ndarray | None = None,
        epsilon: float = EPSILON,
    ):
        self.level = level
        self.C = 1 << level
        self.assignment = np.array(assignment, dtype=np.int32)
        self.matrix = class_matrix(store, self.assignment, self.C)
        self.bank = ContextBank(store, self.assignment, self.C)
        self.pinned_mask = (
            np.zeros(store.V, dtype=bool) if pinned_mask is None else pinned_mask
        )
        self.epsilon = epsilon
        self.max_iterations = 4 * store.V
        self.acmi = acmi(self.matrix)
        self.moved: list[int] = []
        self.delta = np.zeros(store.V)
        self.dirty = np.ones(self.C, dtype=bool)
        self.words_scored = self.words_eligible = 0

    def eligible_words(self) -> np.ndarray:
        """Unpinned words whose class still has company (movable)."""
        sizes = np.bincount(self.assignment, minlength=self.C)
        movable = ~self.pinned_mask & (sizes[self.assignment] >= 2)
        return np.nonzero(movable)[0]

    def _shift(self, w: int, frm: int, to: int) -> None:
        L, R = apply_move(self.matrix, self.bank, w, frm, to)
        # a word in another pair keeps its delta unless w neighbours it or
        # a member of its pair: only then do its cells or context change
        np.logical_or(self.dirty, L + R, out=self.dirty)
        self.dirty[frm] = True
        self.bank.move(w, frm, to)

    def commit(self, w: int, to: int) -> None:
        frm = int(self.assignment[w])
        self._shift(w, frm, to)
        self.moved.append(w)

    def retract(self, w: int, back_to: int) -> None:
        self._shift(w, int(self.assignment[w]), back_to)


def _iteration(state: ClusterState, per_parent: bool) -> tuple[bool, int, int]:
    """One search step: pick the best eligible move of each group, commit it.

    The group is the parent class (frm >> 1) when per_parent, else all words
    form one group.  Every move's delta holds against the matrix and class
    ids frozen at step start, so the selections are order-independent:
    the eligible words of dirty pairs are rescored, and the others keep
    their deltas, which no move since their scoring changed.
    Returns (progressed, committed, retracted).
    """
    words = state.eligible_words()
    frm = state.assignment[words]
    parent = frm >> 1
    dirty = state.dirty
    stale = (dirty[0::2] | dirty[1::2])[parent]
    todo = words[stale]
    state.delta[todo] = batch_deltas(state.matrix, state.bank, todo, frm[stale])
    dirty[:] = False
    d = state.delta[words]
    state.words_scored += len(todo)
    state.words_eligible += len(words)
    group = parent if per_parent else np.zeros_like(frm)
    # by group, then best delta, then lowest word id: the first row of
    # each group's run is its best candidate
    order = np.lexsort((words, -d, group))
    g = group[order]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    best = order[first]
    best = best[d[best] > state.epsilon]
    if not len(best):
        return False, 0, 0
    start = state.acmi
    if len(best) == 1:
        # a lone move's frozen delta is exact
        state.commit(int(words[best[0]]), int(frm[best[0]]) ^ 1)
        state.acmi = start + float(d[best[0]])
        return True, 1, 0
    # one move per parent, so the touched sibling pairs are disjoint
    touched = np.concatenate((frm[best], frm[best] ^ 1))
    before = line_terms(state.matrix, touched)
    for i in best:
        state.commit(int(words[i]), int(frm[i]) ^ 1)
    state.acmi += (line_terms(state.matrix, touched) - before) / state.matrix.T
    retracted = 0
    # a batch that lowered the objective gives back its lowest-scoring
    # moves first until it no longer sits below the step-start value
    for i in sorted(best, key=lambda i: (float(d[i]), int(words[i]))):
        if state.acmi >= start:
            break
        pair = np.array([frm[i], frm[i] ^ 1])
        before = line_terms(state.matrix, pair)
        state.retract(int(words[i]), int(frm[i]))
        state.acmi += (line_terms(state.matrix, pair) - before) / state.matrix.T
        retracted += 1
    progressed = retracted < len(best) and state.acmi - start > state.epsilon
    return progressed, len(best), retracted


def run_level(state: ClusterState, strategy: str) -> LevelStats:
    """Greedy ACMI ascent at one level until no move improves it."""
    t0 = time.perf_counter()
    acmi_before = state.acmi
    iterations = committed = retracted = 0
    capped = False
    trace: list[float] = []
    per_parent = strategy == STRATEGY_PARALLEL
    while True:
        if iterations >= state.max_iterations:
            capped = True
            break
        progressed, n_c, n_r = _iteration(state, per_parent)
        committed += n_c
        retracted += n_r
        if not progressed:
            break
        iterations += 1
        trace.append(state.acmi)
    exact = acmi(state.matrix)
    if abs(exact - state.acmi) > DRIFT_TOLERANCE:
        raise ConsistencyError(
            f"running ACMI drifted from recomputed value by {abs(exact - state.acmi)}"
        )
    state.acmi = exact
    return LevelStats(
        level=state.level,
        iterations=iterations,
        committed_moves=committed,
        retracted_moves=retracted,
        acmi_before=acmi_before,
        acmi_after=exact,
        wall_time=time.perf_counter() - t0,
        capped=capped,
        acmi_trace=trace,
        moved_words=list(state.moved),
        words_scored=state.words_scored,
        words_eligible=state.words_eligible,
    )


def _resolve_pins(vocab: Vocabulary, config: ClusterConfig) -> dict[int, str]:
    pins: dict[int, str] = {}
    for surface, path in (config.pinned or {}).items():
        if surface not in vocab.index:
            raise ConfigError(f"pinned word {surface!r} is not in the vocabulary")
        # pins share the tags format, so a deeper run's tags can pin a
        # shallower run: bits past the last level are dropped
        pins[vocab.index[surface]] = path[: config.levels]
    return pins


def cluster(
    vocab: Vocabulary, store: BigramStore, config: ClusterConfig
) -> tuple[TagTable, list[LevelStats]]:
    """Run init + search for levels 1..s and emit the structured tags.

    znr and znrp runs are bit-identical across repeated invocations; m
    depends only on config.seed.
    """
    V = vocab.size
    if V < 2:
        raise IngestionError(f"need at least 2 vocabulary entries, got {V}")
    if store.T == 0:
        raise IngestionError("empty corpus: no bigrams to cluster on")
    pins = _resolve_pins(vocab, config)
    pinned_mask = np.zeros(V, dtype=bool)
    for w in pins:
        pinned_mask[w] = True

    class_of = np.zeros(V, dtype=np.int32)
    stats: list[LevelStats] = []
    for level in range(1, config.levels + 1):
        pinned_bits = {
            w: int(path[level - 1]) for w, path in pins.items() if len(path) >= level
        }
        class_of = init_level(
            class_of, level - 1, config.strategy, config.seed, pinned_bits
        )
        state = ClusterState(
            store, class_of, level, pinned_mask=pinned_mask, epsilon=config.epsilon
        )
        stats.append(run_level(state, config.strategy))
        class_of = state.assignment
        # the next level's matrix and bank are built without this one alive
        del state

    # a tag ends at the first level where its word is alone, and not before
    # its pin path ends; a lone word's class never gains another word, so
    # the final ids tell when that was
    s = config.levels
    depths = np.full(V, s)
    for level in range(s - 1, 0, -1):
        prefix = class_of >> (s - level)
        depths[np.bincount(prefix)[prefix] == 1] = level
    for w, path in pins.items():
        depths[w] = max(depths[w], len(path))
    rows = []
    for e in vocab.entries:
        d = int(depths[e.word_id])
        cid = int(class_of[e.word_id]) >> (s - d)
        rows.append(TagRow(e.surface, format(cid, f"0{d}b"), e.frequency, cid))
    return TagTable(rows), stats


def oracle_min_moves(
    V: int, target: tuple[int, int], trials: int = 100, seed: int = 0
) -> float:
    """Monte-Carlo mean of the minimum moves from random bits to a target split.

    Per trial each word draws a uniform bit; the cost is the smaller, over
    the two ways of labelling the classes, of the number of words on the
    wrong side of the (n1, n2) target partition.
    """
    n1, n2 = target
    if n1 + n2 != V or n1 < 0 or n2 < 0:
        raise ConfigError(f"target {target} does not partition V={V}")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(trials):
        bits = rng.integers(0, 2, V)
        wrong = int((bits[:n1] == 1).sum() + (bits[n1:] == 0).sum())
        total += min(wrong, V - wrong)
    return total / trials
