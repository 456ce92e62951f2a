"""Seeded input generators for the benchmark workloads, with ground truth.

Each generator writes export files and returns a :class:`Truth` built from
its own tallies: every cited-reference line it emits is recorded with the
year, first author and work identity it was generated with.  The expected
artifacts (``rpys.csv``, ``median.csv``, ``peaks.json``, drill profiles,
author breakdowns, ``stats.csv``) are derived from those tallies and the
documented method (README "Method"), never from the program under test.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import demo_pipeline

# Years the synthetic generators plant heavily cited landmark works in.
PLANTED_YEARS = (1905, 1927, 1950, 1962)
TOP_1905_WORK = "HAVERFORD E, 1905, ANN THEOR PHYS, V17, P891"
UNKNOWN = "UNKNOWN"
MIN_RPY = 1500  # default lower bound of the valid referenced-year range

# Work identity: (author, year, source, volume, page), ordered like RefKey.
Key = tuple[str, int, str, str, str]


@dataclass(frozen=True)
class Ref:
    """One distinct cited-reference string and what it was generated from."""

    raw: str
    year: int | None
    key: Key | None

    @property
    def author(self) -> str | None:
        if self.key is None or self.key[0] == UNKNOWN:
            return None
        return self.key[0]


def display(key: Key) -> str:
    author, year, source, volume, page = key
    parts = [author, str(year)]
    if source:
        parts.append(source)
    if volume:
        parts.append("V" + volume)
    if page:
        parts.append("P" + page)
    return ", ".join(parts)


def share(count: int, total: int) -> float:
    return ((2000 * count + total) // (2 * total)) / 10.0


@dataclass
class Group:
    """Kept (deduplicated, well-formed) records of one journal."""

    records: int = 0
    max_pub_year: int = 0
    refs: Counter = field(default_factory=Counter)  # Ref index -> lines
    by_year: dict = field(default_factory=dict)  # year -> [(Ref, lines)]


@dataclass
class Truth:
    """Generator tallies for one workload's inputs."""

    refs: list[Ref]
    groups: dict[str | None, Group]  # None: journal not tallied
    files: list[Path]
    file_cr_lines: dict[str, int]  # CR lines read per file (duplicates too)
    file_records: dict[str, int]  # well-formed rows/records per file
    file_malformed: dict[str, int]
    duplicates: int = 0
    unique_cr_strings: int = 0
    _kept: dict = field(default_factory=dict, repr=False)

    # -- inputs ---------------------------------------------------------
    @property
    def cr_lines(self) -> int:
        return sum(self.file_cr_lines.values())

    @property
    def unique_ratio(self) -> float:
        return self.unique_cr_strings / self.cr_lines

    @property
    def journals(self) -> list[str]:
        return sorted(j for j in self.groups if j is not None)

    # -- expected results -----------------------------------------------
    def kept(self, journals=None) -> Group:
        cache_key = None if journals is None else tuple(sorted(journals))
        if cache_key not in self._kept:
            self._kept[cache_key] = self._merge(journals)
        return self._kept[cache_key]

    def _merge(self, journals) -> Group:
        wanted = None if journals is None else {j.upper() for j in journals}
        out = Group()
        for name, group in self.groups.items():
            if wanted is not None and (name is None or name.upper() not in wanted):
                continue
            out.records += group.records
            out.max_pub_year = max(out.max_pub_year, group.max_pub_year)
            out.refs.update(group.refs)
        for idx, n in out.refs.items():
            ref = self.refs[idx]
            if ref.year is not None:
                out.by_year.setdefault(ref.year, []).append((ref, n))
        return out

    def excluded_by_filter(self, journals) -> int:
        return self.kept().records - self.kept(journals).records

    def ledger(self, journals=None) -> dict:
        """Counted per year, out of range and year-less kept CR lines."""
        kept = self.kept(journals)
        per_year: Counter = Counter()
        out_of_range = 0
        for year, lines in kept.by_year.items():
            n = sum(count for _, count in lines)
            if MIN_RPY <= year <= kept.max_pub_year:
                per_year[year] = n
            else:
                out_of_range += n
        total = sum(kept.refs.values())
        return {
            "per_year": per_year,
            "out_of_range": out_of_range,
            "yearless": total - out_of_range - sum(per_year.values()),
            "lines": total,
            "records": kept.records,
        }

    def series(self, journals=None) -> list[tuple[int, int, Fraction, Fraction]]:
        per_year = self.ledger(journals)["per_year"]
        first, last = min(per_year), max(per_year)
        counts = [per_year.get(y, 0) for y in range(first, last + 1)]
        rows = []
        for i, n in enumerate(counts):
            window = sorted(counts[max(0, i - 2) : i + 3])
            mid = len(window) // 2
            if len(window) % 2:
                median = Fraction(window[mid])
            else:
                median = Fraction(window[mid - 1] + window[mid], 2)
            rows.append((first + i, n, median, n - median))
        return rows

    def rpys_csv(self, journals=None) -> str:
        rows = [f"{y},{n}" for y, n, _, _ in self.series(journals)]
        return "\n".join(["rpy,n_cr", *rows]) + "\n"

    def median_csv(self, journals=None) -> str:
        rows = [
            f"{y},{n},{float(m):.1f},{float(d):.1f}"
            for y, n, m, d in self.series(journals)
        ]
        return "\n".join(["rpy,n_cr,median5,deviation", *rows]) + "\n"

    def peaks(self, journals=None, top_k: int = 10) -> list[dict]:
        rows = self.series(journals)
        devs = [d for _, _, _, d in rows]
        hits = []
        for i, (year, n, median, d) in enumerate(rows):
            if d <= 0 or (i > 0 and not d > devs[i - 1]):
                continue
            if i + 1 < len(devs) and not d >= devs[i + 1]:
                continue
            hits.append((d, year, n, median))
        hits.sort(key=lambda h: (-h[0], h[1]))
        return [
            {
                "year": year,
                "n_cr": n,
                "median5": float(median),
                "deviation": float(d),
                "rank": rank,
            }
            for rank, (d, year, n, median) in enumerate(hits[:top_k], start=1)
        ]

    def _year_lines(self, year: int, journals=None) -> list:
        return self.kept(journals).by_year.get(year, [])

    def profile(self, year: int, top_k: int = 10, journals=None) -> dict:
        authors: Counter = Counter()
        works: Counter = Counter()
        total = unattributed = 0
        for ref, n in self._year_lines(year, journals):
            total += n
            works[ref.key] += n
            if ref.author is None:
                unattributed += n
            else:
                authors[ref.author] += n
        top_authors = sorted(authors.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        top_works = sorted(works.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        return {
            "year": year,
            "total_refs": total,
            "authors": [
                {"name": a, "count": c, "share": share(c, total)} for a, c in top_authors
            ],
            "works": [
                {"key": display(k), "count": c, "share": share(c, total)}
                for k, c in top_works
            ],
            "unattributed": unattributed,
        }

    def breakdown(self, author: str, year: int, journals=None) -> dict:
        works: Counter = Counter()
        for ref, n in self._year_lines(year, journals):
            if ref.author == author:
                works[ref.key] += n
        total = sum(works.values())
        rows = sorted(works.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "author": author,
            "year": year,
            "total_refs": total,
            "works": [
                {"key": display(k), "count": c, "share": share(c, total)} for k, c in rows
            ],
        }

    def top_author(self, year: int, journals=None) -> str:
        return self.profile(year, 1, journals)["authors"][0]["name"]

    def stats_rows(self) -> list[tuple[str, int, int]]:
        """(journal, records, cited refs) per tallied journal, sorted."""
        return [
            (j, self.groups[j].records, sum(self.groups[j].refs.values()))
            for j in self.journals
        ]


class _RefTable:
    def __init__(self) -> None:
        self.refs: list[Ref] = []
        self.index: dict[str, int] = {}

    def add(self, ref: Ref) -> int:
        idx = self.index.get(ref.raw)
        if idx is None:
            idx = self.index[ref.raw] = len(self.refs)
            self.refs.append(ref)
        return idx


def _demo_ref(line: str) -> Ref:
    """Fields of a line built by demo_pipeline's landmark/background templates."""
    parts = line.split(", ")
    if parts[-1] == "UNDATED WORKING PAPER":
        return Ref(line, None, None)
    if parts[0].isdigit():  # "YEAR, UNSIGNED EDITORIAL NOTE"
        year = int(parts[0])
        return Ref(line, year, (UNKNOWN, year, parts[1], "", ""))
    author, year, source, *rest = parts
    volume, page = (rest[0][1:], rest[1][1:]) if rest else ("", "")
    return Ref(line, int(year), (author, int(year), source, volume, page))


def tagged_export(out_dir: Path, seed: int, n_records: int) -> Truth:
    """One field-tagged export from ``demo_pipeline.synthesize_export``.

    The generator's line builders are wrapped while it runs, so every CR
    line it emits is tallied as generated.
    """
    table = _RefTable()
    counts: Counter = Counter()
    pub_years: list[int] = []
    landmark, background = demo_pipeline.landmark_line, demo_pipeline.background_line

    def tally(line: str) -> str:
        idx = table.index.get(line)
        counts[table.add(_demo_ref(line)) if idx is None else idx] += 1
        return line

    def tally_landmark(rng):
        return tally(landmark(rng))

    def tally_background(rng, pub_year):
        pub_years.append(pub_year)
        return tally(background(rng, pub_year))

    demo_pipeline.landmark_line = tally_landmark
    demo_pipeline.background_line = tally_background
    try:
        text = demo_pipeline.synthesize_export(seed, n_records)
    finally:
        demo_pipeline.landmark_line, demo_pipeline.background_line = landmark, background

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "savedrecs.txt"
    path.write_text(text, encoding="utf-8")
    lines = sum(counts.values())
    group = Group(records=n_records, max_pub_year=max(pub_years), refs=counts)
    return Truth(
        refs=table.refs,
        groups={None: group},
        files=[path],
        file_cr_lines={str(path): lines},
        file_records={str(path): n_records},
        file_malformed={str(path): 0},
        unique_cr_strings=len(table.refs),
    )


# -- merged tab-delimited batches ------------------------------------------

TSV_HEADER = ["PT", "AU", "TI", "SO", "DT", "CR", "NR", "PY", "UT"]
NON_ASCII_AUTHORS = ["GÖDEL K", "MÜLLER H", "BRØNSTED J", "ÅSTRÖM L", "ÉMERY P", "NÚÑEZ R"]
ANCIENT_AUTHORS = ["ARISTOTLE", "AQUINAS T", "OCKHAM W", "BACON R"]
LANDMARK_SHARE = 0.18
DUPLICATE_SHARE = 0.10


def _pool_ref(rng: random.Random, table: _RefTable) -> int:
    """Add one new distinct background reference to the pool."""
    while True:
        roll = rng.random()
        surname = rng.choice(demo_pipeline.SURNAMES)
        author = f"{surname} {chr(rng.randint(65, 90))}"
        year = min(2012, int(rng.triangular(1850, 2013, 2004)))
        source = rng.choice(demo_pipeline.SOURCES)
        if roll < 0.04:
            ref = Ref(f"{author}, UNDATED WORKING PAPER {rng.randint(1, 999)}", None, None)
        elif roll < 0.08:
            source = f"UNSIGNED EDITORIAL NOTE {rng.randint(1, 99)}"
            ref = Ref(f"{year}, {source}", year, (UNKNOWN, year, source, "", ""))
        elif roll < 0.085:  # valid RPY, but before the default range
            author = rng.choice(ANCIENT_AUTHORS)
            year = rng.randint(1000, 1499)
            ref = Ref(f"{author}, {year}, {source}", year, (author, year, source, "", ""))
        else:
            if roll < 0.095:
                author = rng.choice(NON_ASCII_AUTHORS)
            if roll < 0.55:
                vol, page = str(rng.randint(1, 80)), str(rng.randint(1, 900))
                raw = f"{author}, {year}, {source}, V{vol}, P{page}"
            else:
                vol = page = ""
                raw = f"{author}, {year}, {source}"
            ref = Ref(raw, year, (author, year, source, vol, page))
        if ref.raw not in table.index:
            return table.add(ref)


def merged_tsv(out_dir: Path, seed: int, n_files: int, per_file: int) -> Truth:
    """Tab-delimited batch files as a WoS batch download, merged by glob.

    Exactly ``DUPLICATE_SHARE`` of the rows repeat a record of another
    file; journals are balanced exactly, so dedup and filter counts do
    not depend on the seed.  CR strings come from a skewed, heavily
    reused pool.  A few rows are written in Latin-1, and two rows are
    truncated copies of other rows (malformed, skipped when parsed).
    """
    rng = random.Random(seed)
    table = _RefTable()
    landmarks = [
        table.add(_demo_ref(", ".join([a, str(y), s] + ["V" + v] * bool(v) + ["P" + p] * bool(p))))
        for a, y, s, v, p, _ in demo_pipeline.LANDMARKS
    ]
    landmark_weights = [w for *_, w in demo_pipeline.LANDMARKS]
    non_ascii_ref = table.add(_demo_ref("GÖDEL K, 1931, MONATSH MATH PHYS, V38, P173"))

    journals = list(demo_pipeline.JOURNALS)
    n_rows = n_files * per_file
    n_unique = round(n_rows * (1 - DUPLICATE_SHARE)) // len(journals) * len(journals)
    n_dups = n_rows - n_unique
    pool = [_pool_ref(rng, table) for _ in range(max(50, n_rows * 5))]
    cum, acc = [], 0.0
    for rank in range(len(pool)):
        acc += 1.0 / (rank + 10) ** 0.5
        cum.append(acc)

    records = []  # (uid, journal, pub_year, [ref idx])
    for i in range(n_unique):
        n_refs = rng.randint(12, 40)
        n_landmark = sum(rng.random() < LANDMARK_SHARE for _ in range(n_refs))
        refs = rng.choices(landmarks, weights=landmark_weights, k=n_landmark)
        refs += rng.choices(pool, cum_weights=cum, k=n_refs - n_landmark)
        rng.shuffle(refs)
        records.append(
            [f"WOS:{seed:06d}{i:08d}", journals[i % len(journals)], rng.randint(1995, 2012), refs]
        )
    rng.shuffle(records)
    latin1 = set(rng.sample(range(n_unique), max(1, n_files // 5)))
    for i in latin1:
        records[i][3][0] = non_ascii_ref

    # Unique records fill the files in order; duplicates of records held
    # by other files top every file up to per_file rows.
    unique_per_file = [n_unique // n_files + (f < n_unique % n_files) for f in range(n_files)]
    rows_by_file: list[list[int]] = []
    start = 0
    for f in range(n_files):
        rows_by_file.append(list(range(start, start + unique_per_file[f])))
        start += unique_per_file[f]
    home = {i: f for f, rows in enumerate(rows_by_file) for i in rows}
    for f in range(n_files):
        while len(rows_by_file[f]) < per_file:
            i = rng.randrange(n_unique)
            if home[i] != f and i not in rows_by_file[f]:
                rows_by_file[f].append(i)
        rng.shuffle(rows_by_file[f])

    def row(i: int) -> str:
        uid, journal, pub_year, refs = records[i]
        surname = demo_pipeline.SURNAMES[i % len(demo_pipeline.SURNAMES)].title()
        cells = [
            "J",
            f"{surname}, {chr(65 + i % 26)}.",
            f"Merged batch paper {i + 1}",
            journal,
            "Article",
            "; ".join(table.refs[r].raw for r in refs),
            str(len(refs)),
            str(pub_year),
            uid,
        ]
        return "\t".join(cells)

    out_dir.mkdir(parents=True, exist_ok=True)
    files, file_lines, file_records, file_malformed = [], {}, {}, {}
    read_strings: set[int] = set()
    width = len(str(n_files))
    for f, rows in enumerate(rows_by_file):
        path = out_dir / f"savedrecs_{f + 1:0{width}d}.txt"
        chunks = ["\t".join(TSV_HEADER).encode("utf-8")]
        lines = 0
        for i in rows:
            encoding = "latin-1" if i in latin1 and home[i] == f else "utf-8"
            chunks.append(row(i).encode(encoding))
            lines += len(records[i][3])
            read_strings.update(records[i][3])
        malformed = 0
        if f < 2:  # a batch row cut short, as in an interrupted download
            cut = row(rows[0]).split("\t")[:4]
            chunks.insert(1 + rng.randrange(len(rows)), "\t".join(cut).encode("utf-8"))
            malformed = 1
        path.write_bytes(b"\n".join(chunks) + b"\n")
        files.append(path)
        file_lines[str(path)] = lines
        file_records[str(path)] = len(rows)
        file_malformed[str(path)] = malformed

    groups: dict[str | None, Group] = {j: Group() for j in journals}
    for uid, journal, pub_year, refs in records:
        group = groups[journal]
        group.records += 1
        group.max_pub_year = max(group.max_pub_year, pub_year)
        group.refs.update(refs)
    return Truth(
        refs=table.refs,
        groups=groups,
        files=files,
        file_cr_lines=file_lines,
        file_records=file_records,
        file_malformed=file_malformed,
        duplicates=n_dups,
        unique_cr_strings=len(read_strings),
    )
