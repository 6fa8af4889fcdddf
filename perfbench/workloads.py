"""Seeded request streams for the two benchmark workloads.

Every request is a pure function of (workload, seed, index), so the same
seed always yields a byte-identical stream no matter how many requests a
run gets through. Each request carries a hand-written reference: a golden
value for corpus programs, and the number of deliberately planted errors
for generated check programs.
No reference is ever taken from `mhc` output.

Kinds inside a workload come in equal shares, chosen so that p50 and p99
each fall inside a body of requests rather than on a gap between kinds or
in the outlier tail (see NOTES.md).
"""

import functools
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

MASK = (1 << 64) - 1


class Rng:
    """splitmix64: tiny, portable, and identical on every Python."""

    def __init__(self, *keys):
        s = 0x243F6A8885A308D3
        for k in keys:
            s = (s ^ (k & MASK)) & MASK
            s = self._mix((s + 0x9E3779B97F4A7C15) & MASK)
        self.state = s

    @staticmethod
    def _mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        return self._mix(self.state)

    def below(self, n):
        return self.next() % n

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def encode(obj):
    """The request line exactly as sent (no trailing newline)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Request:
    __slots__ = ("line", "ref")

    def __init__(self, obj, ref):
        self.line = encode(obj)
        self.ref = ref


def check_response(ref, raw):
    """None when the response line matches the reference, else a reason."""
    try:
        r = json.loads(raw)
    except ValueError:
        return "unparseable response"
    if not isinstance(r, dict) or r.get("ok") is not True:
        err = r.get("error") if isinstance(r, dict) else None
        return "request failed: %s" % (err,)
    kind, expected = ref
    if kind == "value":
        if r.get("value") != expected:
            return "value %r, expected %r" % (r.get("value"), expected)
    elif kind == "errors":
        if r.get("errors") != expected or r.get("artifact") != (expected == 0):
            return "errors=%r artifact=%r, expected %d error(s)" % (
                r.get("errors"), r.get("artifact"), expected)
    elif kind == "ready":
        if r.get("ready") is not True:
            return "server not ready"
    else:
        return "unknown reference kind %r" % (kind,)
    return None


# ---------------------------------------------------------------------------
# hot_run: corpus programs that execute in about a millisecond, all cached.

# Golden values as written in test/test_programs.ml.
GOLDEN = {
    "matrix": '([1, 2, 3, 5, 8, 13, 21, 34], True, "[2 2; 2 0]")',
    "set": "([1, 2, 3, 4, 5, 6, 9], True, [(1, 'a'), (2, 'a'), (2, 'b')], 4)",
    "calculator":
        '(-10, -9.5, "(Add (Lit [2]) (Mul (Lit [3]) (Neg (Lit [4]))))")',
    "parsec": "(7, 9, 101, 7)",
    "regex": "(True, False, True, False, True)",
    "stats":
        "(5.0, 4.0, 4.5, [1, 3, 6, 10], [0.5, 0.75], (2.0, 9.0), ('a', 't'))",
    "primes":
        "([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], [3, 5, 6, 9, 10, 12, 15, 18], "
        "[2, 3, 5, 7, 11, 13, 17, 19, 23, 29])",
    "nqueens":
        "([1, 0, 0, 2, 10, 4], [(6, 5), (5, 3), (4, 1), (3, 6), (2, 4), (1, 2)])",
}

# The light programs run three ways each, (strategy, backend): two cache
# keys per program. They overlap into one body of latencies around the
# median.
HOT_LIGHT = ["calculator", "matrix", "parsec", "primes", "regex", "set", "stats"]
HOT_CONFIGS = [("dict", "tree"), ("dict-flat", "tree"), ("dict", "vm")]
# nqueens runs about 8x longer than the rest. Its one kind, 1 request in
# 22, holds the p99: without it p99 sat in the tail of requests slowed by
# the host and the collector, which moved by 30% from run to run.
HOT_HEAVY = [("nqueens", "dict-flat", "vm")]

# The program whose dispatch profile drives the server's --spec-profile.
PROFILE_PROGRAM = "matrix"


def corpus_path(name):
    return os.path.join(HERE, "corpus", name + ".mhs")


@functools.lru_cache(maxsize=None)
def corpus_source(name):
    with open(corpus_path(name)) as f:
        return f.read()


# ---------------------------------------------------------------------------
# fresh_check: every request a distinct program with fresh names.

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def fresh_stem(rng):
    return "".join(LETTERS[rng.below(26)] for _ in range(7))


def _block(kind, n, stem):
    """One well-typed top-level group and an Int-typed use of it."""
    f = "%s%d" % (stem, n)
    if kind == 0:
        return ("%s :: (Num a, Ord a) => a -> a -> a\n"
                "%s x y = if x < y then y - x else x + y * 2" % (f, f),
                "%s 3 4" % f)
    if kind == 1:
        return ("%s xs = sum (map (\\v -> v * v) xs) + length xs" % f,
                "%s [1, 2, 3]" % f)
    if kind == 2:
        return ("%s x ys = member [x] [ys] || maximum ys == x" % f,
                "(if %s 2 [1, 2] then 1 else 0)" % f)
    if kind == 3:
        cap = stem[0].upper() + stem[1:]
        t, a, b = "%sT%d" % (cap, n), "%sA%d" % (cap, n), "%sB%d" % (cap, n)
        c, m = "%sC%d" % (cap, n), "%sm%d" % (stem, n)
        return ("data %s = %s Int | %s Bool\n"
                "class %s a where\n  %s :: a -> Int\n"
                "instance %s Int where\n  %s k = k + 1\n"
                "instance %s %s where\n  %s (%s k) = k\n  %s (%s q) = if q then 1 else 0\n"
                "instance %s a => %s [a] where\n  %s xs = sum (map %s xs)\n"
                "%s = %s [%s 3, %s True] + %s [[1, 2], [3 :: Int]]"
                % (t, a, b, c, m, c, m, c, t, m, a, m, b, c, c, m, m,
                   f, m, a, b, m),
                f)
    return ("%s k = let g j = (j, j + k) in fst (g k) + snd (g 1)" % f,
            "%s 5" % f)


BLOCK_KINDS = 5

# Each planted binding is used nowhere else and yields exactly one error.
ERROR_TEMPLATES = [
    "{e} = True + 1",
    "{e} y = y ++ 1",
    "{e} = 'c' == 1",
    "{e} = (1 :: Int) && True",
    "{e} = {e}missing 3",
]

FRESH_ERROR_EVERY = 5   # one request in five carries planted errors
FRESH_MAX_BLOCKS = 12
FRESH_WARMUP = 24      # untimed fresh programs that end set-up


def fresh_program(rng, with_errors):
    stem = fresh_stem(rng)
    nblocks = 1 + rng.below(FRESH_MAX_BLOCKS)
    decls, uses = [], []
    for n in range(nblocks):
        d, u = _block(rng.below(BLOCK_KINDS), n, stem)
        decls.append(d)
        uses.append(u)
    nerr = (1 + rng.below(2)) if with_errors else 0
    for k in range(nerr):
        tmpl = ERROR_TEMPLATES[rng.below(len(ERROR_TEMPLATES))]
        pos = rng.below(len(decls) + 1)
        decls.insert(pos, tmpl.format(e="%se%d" % (stem, k)))
    decls.append("main = " + " + ".join(uses))
    return "\n\n".join(decls) + "\n", nerr


# ---------------------------------------------------------------------------

WORKLOAD_TAG = {"fresh_check": 1, "hot_run": 2}


class Workload:
    """A named, seeded request stream plus the server it runs against."""

    def __init__(self, name, seed):
        if name not in WORKLOAD_TAG:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.seed = seed
        self.transport = "tcp" if name == "hot_run" else "stdio"
        self.kinds = self._kinds()

    def _kinds(self):
        if self.name == "hot_run":
            return [(p, s, b) for p in HOT_LIGHT
                    for s, b in HOT_CONFIGS] + HOT_HEAVY
        return None

    def _run_request(self, rid, kind):
        prog, strategy, backend = kind
        return Request({"op": "run", "id": rid, "src": corpus_source(prog),
                        "strategy": strategy, "backend": backend},
                       ("value", GOLDEN[prog]))

    def _fresh_request(self, rid, index, stream):
        # one planted-error program per block of FRESH_ERROR_EVERY, at a
        # seeded position, so the share is fixed at every cut-off point
        block = index // FRESH_ERROR_EVERY
        bad = Rng(self.seed, stream, block).below(FRESH_ERROR_EVERY)
        src, nerr = fresh_program(Rng(self.seed, stream, index, 7),
                                  index % FRESH_ERROR_EVERY == bad)
        return Request({"op": "check", "id": rid, "src": src},
                       ("errors", nerr))

    def ready(self):
        return Request({"op": "ready", "id": "ready"}, ("ready", True))

    def warmup(self):
        """The untimed requests that end set-up: one compile of every
        working-set program, or a fixed number of fresh programs."""
        if self.kinds is None:
            return [self._fresh_request("w%d" % i, i, 0)
                    for i in range(FRESH_WARMUP)]
        seen, reqs = set(), []
        for kind in self.kinds:
            key = kind[:2]  # (program, strategy): the compile cache key
            if key not in seen:
                seen.add(key)
                reqs.append(self._run_request("w%d" % len(reqs), kind))
        return reqs

    def kind_of(self, i):
        """Which kind timed request i is: every consecutive block of
        len(kinds) requests holds each kind once, in seeded order."""
        n = len(self.kinds)
        order = Rng(self.seed, WORKLOAD_TAG[self.name], i // n).shuffled(range(n))
        return order[i % n]

    def request(self, i):
        """Timed request number i (0-based)."""
        if self.kinds is None:
            return self._fresh_request(i, i, WORKLOAD_TAG[self.name])
        return self._run_request(i, self.kinds[self.kind_of(i)])

