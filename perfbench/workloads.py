"""The three workloads: their server flags, seeded inputs and checks.

Every workload is a closed loop with one client, because the explorer
waits for each answer before asking the next question.  The loop runs in
whole *rounds*: every round issues the same operation mix (only the
predicates differ with the seed), so the mix — and with it the cost of a
round — is the same for every seed and every run length.

The server receives only the generated predicates and flags.  The
client keeps its own copy of each generated table and checks every
answer against numpy evaluations made apart from the program, or against
properties the method must have (see :func:`check_answer`).
"""

from __future__ import annotations

import itertools
from time import perf_counter

import numpy as np

from harness import Http, OpError

#: Op types counted per run (attempted and failed).
OP_TYPES = ("submit", "stream", "page", "configure", "batch", "check",
            "recovery")

#: Standardized mean difference above which a ``mean_shift`` direction
#: must match numpy's sign.  The sketch tier estimates from a reservoir
#: of 4096 rows, so a few hundred sampled rows per side put one standard
#: error near 0.05-0.07; 0.2 is three to four of them.
CLEAR_SHIFT = 0.2

#: Selections are kept at least this many rows away from empty/full, so
#: no generated predicate can hit the empty-selection error.
MIN_SIDE_ROWS = 30

#: Figure-1 analyst options: the other crime columns are excluded,
#: because "crime is high where crime is high" is no insight.
CRIME_EXCLUDED = ("property_crime_rate", "n_murders", "n_police_officers")
ANALYST_OPTIONS = {"max_views": 10, "excluded_columns": list(CRIME_EXCLUDED)}

#: Components whose weights ``small-durable`` re-tunes via /v2/configure.
TUNABLE_COMPONENTS = ("mean_shift", "spread_shift", "correlation_shift",
                      "frequency_shift", "missing_shift")


class Ops:
    """Attempted/failed counts per op type, plus the first few errors."""

    def __init__(self):
        self.attempted = dict.fromkeys(OP_TYPES, 0)
        self.failed = dict.fromkeys(OP_TYPES, 0)
        self.errors: list[str] = []
        #: Mean-shift directions compared against numpy by the checks.
        self.signs_checked = 0

    def run(self, kind: str, fn, *args, **kwargs):
        """Run one operation; a raised :class:`OpError` counts it failed
        and returns None."""
        self.attempted[kind] += 1
        try:
            return fn(*args, **kwargs)
        except OpError as exc:
            self.fail(kind, str(exc), counted=True)
            return None

    def fail(self, kind: str, message: str, counted: bool = False) -> None:
        if not counted:
            self.attempted[kind] += 1
        self.failed[kind] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")

    def ok(self, kind: str) -> None:
        self.attempted[kind] += 1

    def merge(self, other: "Ops") -> None:
        for kind in OP_TYPES:
            self.attempted[kind] += other.attempted[kind]
            self.failed[kind] += other.failed[kind]
        self.signs_checked += other.signs_checked
        self.errors.extend(other.errors[:20 - len(self.errors)])


# -- the client's own copy of the data ----------------------------------------


class Data:
    """Column arrays of a generated table, evaluated with numpy only."""

    def __init__(self, table):
        self.n_rows = table.n_rows
        self.numeric: dict[str, np.ndarray] = {}
        self.labels: dict[str, np.ndarray] = {}
        for name in table.column_names:
            column = table.column(name)
            kind = type(column).__name__
            if kind == "NumericColumn":
                self.numeric[name] = np.asarray(column.numeric_values(),
                                                dtype=float)
            elif kind == "CategoricalColumn":
                self.labels[name] = np.asarray(column.values(), dtype=object)
        #: Columns a threshold predicate may use: numeric, no gaps.
        self.complete = sorted(c for c, v in self.numeric.items()
                               if not np.isnan(v).any())

    def mask(self, atoms) -> np.ndarray:
        out = np.ones(self.n_rows, dtype=bool)
        for column, op, value in atoms:
            if op == "=":
                out &= self.labels[column] == value
            elif op == ">":
                out &= self.numeric[column] > float(value)
            else:
                out &= self.numeric[column] < float(value)
        return out


def predicate_text(atoms) -> str:
    parts = []
    for column, op, value in atoms:
        shown = f"'{value}'" if op == "=" else value
        parts.append(f"{column} {op} {shown}")
    return " AND ".join(parts)


def _threshold(values: np.ndarray, op: str, share: float) -> str:
    """A decimal literal cutting off about ``share`` of the rows."""
    q = 1.0 - share if op == ">" else share
    cut = float(np.quantile(values, q))
    return np.format_float_positional(cut, precision=6, unique=False,
                                      fractional=False, trim="-")


class PredicateMaker:
    """Seeded generator of predicates of named kinds over one table.

    Kinds: ``thr`` (one threshold at a selectivity drawn from a range),
    ``conj`` (two thresholds), ``cat`` (one category), ``cat_thr``
    (a category and a threshold).  Every predicate is re-drawn until its
    selection keeps :data:`MIN_SIDE_ROWS` rows on both sides.

    Threshold columns come from one fixed cycle over the table's complete
    numeric columns, the same for every seed: what a query costs depends
    mostly on its column, and a run asks too few queries for a seeded
    column draw to average out.  The seed draws everything else —
    selectivities, directions, categories and revisits.
    """

    def __init__(self, data: Data, rng: np.random.Generator, category: str):
        self.data = data
        self.rng = rng
        self.category = category
        self.categories = sorted(set(data.labels[category]))
        order = np.random.default_rng(0).permutation(len(data.complete))
        self.columns = itertools.cycle([data.complete[i] for i in order])

    def _thr(self, share: float) -> tuple:
        column = next(self.columns)
        op = ">" if self.rng.random() < 0.5 else "<"
        return (column, op, _threshold(self.data.numeric[column], op, share))

    def _cat(self) -> tuple:
        label = self.categories[self.rng.integers(len(self.categories))]
        return (self.category, "=", label)

    def make(self, kind: str, low: float = 0.05, high: float = 0.8) -> tuple:
        while True:
            if kind == "thr":
                atoms = (self._thr(float(np.exp(self.rng.uniform(
                    np.log(low), np.log(high))))),)
            elif kind == "conj":
                a, b = self.rng.uniform(0.4, 0.9, size=2)
                atoms = (self._thr(float(a)), self._thr(float(b)))
            elif kind == "cat":
                atoms = (self._cat(),)
            elif kind == "cat_thr":
                atoms = (self._cat(), self._thr(float(
                    self.rng.uniform(0.5, 0.9))))
            else:
                raise ValueError(kind)
            if len({a[0] for a in atoms}) < len(atoms):
                continue
            n_in = int(self.data.mask(atoms).sum())
            if MIN_SIDE_ROWS <= n_in <= self.data.n_rows - MIN_SIDE_ROWS:
                return atoms


# -- answer checks ----------------------------------------------------------


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    x = x - x.mean()
    y = y - y.mean()
    denom = np.sqrt((x * x).sum() * (y * y).sum())
    return float((x * y).sum() / denom) if denom > 0 else 0.0


def check_answer(data: Data, atoms, n_inside, views: list[dict],
                 excluded=(), max_view_dim: int = 2,
                 min_tightness: float = 0.35, alpha: float = 0.05
                 ) -> tuple[list[str], int]:
    """Problems found in one answer, and the mean-shift signs compared.

    * ``n_inside`` equals numpy's count of the predicate's rows;
    * ranks run 1..n; views are disjoint, have at most ``max_view_dim``
      columns and never show a predicate or excluded column;
    * every view's aggregated p-value is at most ``alpha``;
    * every 2-column numeric view has a full-table |Pearson| of at least
      ``min_tightness``;
    * every ``mean_shift`` direction matches the sign of numpy's mean
      difference wherever the standardized difference is clearly non-zero.
    """
    problems: list[str] = []
    mask = data.mask(atoms)
    if n_inside != int(mask.sum()):
        problems.append(f"n_inside {n_inside} != numpy {int(mask.sum())}")
    ranks = [v.get("rank") for v in views]
    if ranks != list(range(1, len(views) + 1)):
        problems.append(f"ranks {ranks}")
    seen: set[str] = set()
    banned = {a[0] for a in atoms} | set(excluded)
    signs = 0
    for view in views:
        cols = list(view["columns"])
        if len(cols) > max_view_dim:
            problems.append(f"view {cols} wider than {max_view_dim}")
        if seen & set(cols):
            problems.append(f"view {cols} overlaps an earlier view")
        seen |= set(cols)
        if banned & set(cols):
            problems.append(f"view {cols} shows {sorted(banned & set(cols))}")
        p_value = view.get("p_value")
        if p_value is None or p_value > alpha:
            problems.append(f"view {cols} p={p_value} > alpha {alpha}")
        if len(cols) == 2 and all(c in data.numeric for c in cols):
            r = abs(_pearson(data.numeric[cols[0]], data.numeric[cols[1]]))
            if r < min_tightness - 1e-9:
                problems.append(f"view {cols} |pearson| {r:.3f} < "
                                f"{min_tightness}")
        for comp in view.get("components", ()):
            if comp.get("component") != "mean_shift":
                continue
            values = data.numeric.get(comp["columns"][0])
            if values is None:
                continue
            inside = values[mask & ~np.isnan(values)]
            outside = values[~mask & ~np.isnan(values)]
            pooled = np.sqrt((inside.var() + outside.var()) / 2.0)
            if pooled <= 0:
                continue
            shift = (inside.mean() - outside.mean()) / pooled
            if abs(shift) < CLEAR_SHIFT:
                continue
            signs += 1
            want = "higher" if shift > 0 else "lower"
            if comp.get("direction") != want:
                problems.append(
                    f"mean_shift {comp['columns'][0]} says "
                    f"{comp.get('direction')}, numpy d={shift:+.3f}")
    return problems, signs


def figure1_problems(views: list[dict]) -> list[str]:
    """The paper's seed query must recover all 8 Figure-1 directions."""
    from repro.data.crime import CRIME_PHENOMENA

    directions = {}
    for view in views:
        for comp in view.get("components", ()):
            if comp.get("component") == "mean_shift":
                directions[comp["columns"][0]] = comp.get("direction")
    problems = []
    for columns, wanted in CRIME_PHENOMENA.values():
        for column, want in zip(columns, wanted):
            if directions.get(column) != want:
                problems.append(f"figure-1 {column}: want {want}, got "
                                f"{directions.get(column)}")
    return problems


# -- one characterization over HTTP -------------------------------------------


class Answer:
    """What the client kept of one characterization, for later checks."""

    __slots__ = ("atoms", "n_inside", "views", "job_id", "kind")

    def __init__(self, atoms, n_inside, views, job_id=None, kind=""):
        self.atoms = atoms
        self.n_inside = n_inside
        self.views = views
        self.job_id = job_id
        self.kind = kind


def answer_from_events(atoms, events, job_id) -> Answer:
    """Fold a job's SSE events into an :class:`Answer` (raises OpError
    when the stream does not end ``done``/``done`` with a result)."""
    views, n_inside = [], None
    for kind, data in events:
        if kind == "view-ready":
            views.append(data)
        elif kind == "result":
            n_inside = data.get("n_inside")
    status = events[-1][1].get("status") if events else None
    if status != "done" or n_inside is None:
        raise OpError(f"job {job_id} ended {status!r} without a result")
    return Answer(atoms, n_inside, views, job_id)


class Client:
    """The closed-loop client: timed operations plus answer bookkeeping.

    ``spans`` (traced runs) collects one ``(name, start, end)`` per HTTP
    call, on the same ``perf_counter`` clock the server's spans use.
    """

    def __init__(self, http: Http, ops: Ops, client_id: str,
                 spans: list | None = None):
        self.http = http
        self.ops = ops
        self.client_id = client_id
        self.spans = spans
        self.done_ms: list[float] = []
        self.page_ms: list[float] = []
        self.answers: list[Answer] = []
        self.characterizations = 0
        #: Per job (traced runs): (submit start, done seen, sse bytes,
        #: sse events).
        self.jobs: list[tuple] = []
        self.batches: list[tuple] = []

    def _span(self, name, start, end):
        if self.spans is not None:
            self.spans.append((name, start, end))

    def job(self, atoms, options: dict | None = None,
            record: bool = True) -> Answer | None:
        """Submit one job, stream it to ``done`` and keep its answer."""
        body = {"where": predicate_text(atoms), "client_id": self.client_id}
        if options:
            body["options"] = options
        t0 = perf_counter()
        snap = self.ops.run("submit", self.http.post_json, "/v2/jobs", body)
        t1 = perf_counter()
        if snap is None:
            return None
        self._span("http.submit", t0, t1)
        got = self.ops.run("stream", self.http.stream, snap["job_id"])
        t2 = perf_counter()
        if got is None:
            return None
        events, n_bytes = got
        self._span("http.stream", t1, t2)
        try:
            answer = answer_from_events(atoms, events, snap["job_id"])
        except OpError as exc:
            self.ops.fail("stream", str(exc), counted=False)
            return None
        if record:
            self.done_ms.append((t2 - t0) * 1000.0)
            self.jobs.append((t0, t2, n_bytes, len(events)))
            self.characterizations += 1
            self.answers.append(answer)
        return answer

    def batch(self, table: str, atom_list, record: bool = True,
              options: dict | None = None) -> list[Answer] | None:
        """One ``/v2/batch`` round trip; answers come back in order."""
        body = {"table": table, "client_id": self.client_id,
                "predicates": [predicate_text(a) for a in atom_list]}
        if options:
            body["options"] = options
        t0 = perf_counter()
        reply = self.ops.run("batch", self.http.post_json, "/v2/batch", body,
                             timeout=120.0)
        t1 = perf_counter()
        if reply is None:
            return None
        self._span("http.batch", t0, t1)
        results = reply.get("results", [])
        if len(results) != len(atom_list):
            self.ops.fail("batch", f"{len(results)} results for "
                                   f"{len(atom_list)} predicates")
            return None
        answers = [Answer(atoms, res.get("n_inside"),
                          list(res.get("views", {}).get("items", ())))
                   for atoms, res in zip(atom_list, results)]
        if record:
            self.done_ms.append((t1 - t0) * 1000.0)
            self.batches.append((t0, t1, len(atom_list)))
            self.characterizations += len(atom_list)
            self.answers.extend(answers)
        return answers

    def page(self, page_size: int = 5, record: bool = True) -> None:
        t0 = perf_counter()
        reply = self.ops.run("page", self.http.post_json, "/v2/views",
                             {"client_id": self.client_id, "page": 1,
                              "page_size": page_size})
        t1 = perf_counter()
        if reply is not None and record:
            self.page_ms.append((t1 - t0) * 1000.0)
            self._span("http.page", t0, t1)

    def configure(self, weights: dict) -> None:
        t0 = perf_counter()
        self.ops.run("configure", self.http.post_json, "/v2/configure",
                     {"client_id": self.client_id, "weights": weights})
        self._span("http.configure", t0, perf_counter())


# -- the workloads ----------------------------------------------------------


class Workload:
    """Base: subclasses define flags, data, warm-up and one round."""

    name = ""
    table = ""
    table_kwargs: dict = {}
    category = ""
    options: dict = {}
    excluded: tuple = ()

    def __init__(self, seed: int):
        from repro.data.registry import load_dataset

        self.seed = seed
        self.data = Data(load_dataset(self.table, **self.table_kwargs))

    def serve_args(self, state_dir: str | None = None) -> list[str]:
        raise NotImplementedError

    def fresh_inputs(self) -> None:
        """Reset the seeded generator: every phase of one run replays
        exactly the same inputs."""
        self.rng = np.random.default_rng(self.seed)
        self.maker = PredicateMaker(self.data, self.rng, self.category)
        self.history: list[tuple] = []

    def warm_up(self, client: Client) -> None:
        raise NotImplementedError

    def open_session(self, client: Client) -> None:
        """Whatever the timed window starts with before its rounds."""

    def round(self, client: Client) -> None:
        raise NotImplementedError

    def overlap_predicates(self, answers: list[Answer]) -> list:
        """Distinct predicates (with their tiered answers) compared
        against ``sketch_tier="off"`` in a traced run."""
        seen, out = set(), []
        for answer in answers:
            key = predicate_text(answer.atoms)
            if key not in seen:
                seen.add(key)
                out.append(answer)
        return out[:self.OVERLAP_QUERIES]

    OVERLAP_QUERIES = 12

    def check(self, answers: list[Answer], ops: Ops) -> None:
        """Check every answer (one ``check`` op each)."""
        for answer in answers:
            problems, signs = check_answer(
                self.data, answer.atoms, answer.n_inside, answer.views,
                excluded=self.excluded)
            ops.signs_checked += signs
            if problems:
                ops.fail("check", f"{predicate_text(answer.atoms)}: "
                                  + "; ".join(problems[:3]))
            else:
                ops.ok("check")

    def exact_answers(self, client: Client, picked: list[Answer]) -> list:
        """The same predicates with ``sketch_tier="off"``."""
        options = dict(self.options, sketch_tier="off")
        return [client.job(a.atoms, options, record=False) for a in picked]


class Explore(Workload):
    """us_crime at 20k rows on process shards: the explorer's session.

    It opens with the paper's seed query (top-decile violent crime, the
    Figure-1 analyst options) and drills down.  A round is ten queries:
    two tail thresholds (1-5% of rows: too few sampled rows for the
    sketch tier to decide, so the exact tier answers), two mid (12-30%)
    and one wide (30-80%) threshold, one conjunction, one region and one
    region-and-threshold predicate, and two revisits of earlier
    predicates.  Every query is a job streamed to ``done``, then the
    first page of its views is fetched.
    """

    name = "explore"
    table = "us_crime"
    table_kwargs = {"n_rows": 20000}
    category = "region"
    options = ANALYST_OPTIONS
    excluded = CRIME_EXCLUDED
    ROUND = (("thr", 0.01, 0.05), ("thr", 0.01, 0.05), ("thr", 0.12, 0.3),
             ("thr", 0.12, 0.3), ("thr", 0.3, 0.8), ("conj",), ("cat",),
             ("cat_thr",), ("revisit",), ("revisit",))

    def serve_args(self, state_dir=None):
        return ["--dataset", "us_crime", "--seed-rows", "20000",
                "--executor", "process", "--workers", "2"]

    def warm_up(self, client):
        values = self.data.numeric["violent_crime_rate"]
        atoms = (("violent_crime_rate", ">", _threshold(values, ">", 0.5)),)
        if client.job(atoms, self.options, record=False) is None:
            raise OpError("warm-up query failed")
        client.page(record=False)

    def open_session(self, client):
        """The paper's running example: top-decile violent crime."""
        values = self.data.numeric["violent_crime_rate"]
        atoms = (("violent_crime_rate", ">", _threshold(values, ">", 0.1)),)
        self.history.append(atoms)
        answer = client.job(atoms, self.options)
        client.page()
        if answer is not None:
            answer.kind = "seed"

    def round(self, client):
        for kind, *bounds in self.ROUND:
            if kind == "revisit":
                atoms = self.history[self.rng.integers(len(self.history))]
            else:
                atoms = self.maker.make(kind, *bounds)
                self.history.append(atoms)
            client.job(atoms, self.options)
            client.page()

    def check(self, answers, ops):
        super().check(answers, ops)
        for answer in answers:
            if answer.kind == "seed":
                problems = figure1_problems(answer.views)
                if problems:
                    ops.fail("check", "; ".join(problems))
                else:
                    ops.ok("check")


class WideBatch(Workload):
    """innovation at the paper size (6823 x 519) on process shards.

    The paper's hypothesis-generation use: a round is one ``/v2/batch``
    of three predicates — a 12-30% threshold, a 30-70% threshold and a
    country-group predicate — then the first page of the last result's
    views.
    """

    name = "wide-batch"
    table = "innovation"
    category = "country_group"
    BATCH = (("thr", 0.12, 0.3), ("thr", 0.3, 0.7), ("cat",))
    OVERLAP_QUERIES = 3

    def serve_args(self, state_dir=None):
        return ["--dataset", "innovation", "--executor", "process",
                "--workers", "2"]

    def warm_up(self, client):
        values = self.data.numeric["rnd_spending_00"]
        atoms = (("rnd_spending_00", ">", _threshold(values, ">", 0.5)),)
        if client.batch(self.table, [atoms], record=False) is None:
            raise OpError("warm-up batch failed")
        client.page(record=False)

    def round(self, client):
        atom_list = [self.maker.make(kind, *bounds)
                     for kind, *bounds in self.BATCH]
        client.batch(self.table, atom_list)
        client.page()

    def exact_answers(self, client, picked):
        return client.batch(self.table, [a.atoms for a in picked],
                            record=False,
                            options={"sketch_tier": "off"}) or []


class SmallDurable(Workload):
    """boxoffice at the paper size (900 x 12), thread executor, durable.

    Below the sketch capacity, so the exact tier answers and the core is
    cheap: the front-end, codec, job manager and journal do most of the
    work.  A round is five jobs — thresholds at 5-10%, 10-40% and
    40-80%, one conjunction and one genre predicate, in seeded order —
    each streamed to ``done`` and its first view page fetched; before one
    seeded job per round the client re-weights two components through
    ``/v2/configure``.
    """

    name = "small-durable"
    table = "boxoffice"
    category = "genre"
    ROUND = (("thr", 0.05, 0.1), ("thr", 0.1, 0.4), ("thr", 0.4, 0.8),
             ("conj",), ("cat",))
    OVERLAP_QUERIES = 5

    def serve_args(self, state_dir=None):
        return ["--dataset", "boxoffice", "--state-dir", str(state_dir)]

    def warm_up(self, client):
        values = self.data.numeric["gross"]
        atoms = (("gross", ">", _threshold(values, ">", 0.5)),)
        if client.job(atoms, record=False) is None:
            raise OpError("warm-up query failed")
        client.page(record=False)

    def round(self, client):
        configure_at = int(self.rng.integers(len(self.ROUND)))
        for step, index in enumerate(self.rng.permutation(len(self.ROUND))):
            if step == configure_at:
                names = self.rng.choice(TUNABLE_COMPONENTS, size=2,
                                        replace=False)
                client.configure({str(n): round(float(w), 3) for n, w in
                                  zip(names, self.rng.uniform(0.5, 2.0, 2))})
            kind, *bounds = self.ROUND[index]
            client.job(self.maker.make(kind, *bounds))
            client.page()


WORKLOADS = {w.name: w for w in (Explore, WideBatch, SmallDurable)}
