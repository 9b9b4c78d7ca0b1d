"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Random corpora use integer citation counts (raw citation data is
integer-valued); every equality asserted here is exact.
"""

from __future__ import annotations

import contextlib
import json
import random
import time

import pytest

from xindices import (
    build_corpus,
    estimate_stats,
    g_type_index,
    h_type_index,
    group_index,
    ivw_xd_index,
    read_table,
    x_index,
    xc_index,
    xd_index,
    xdf_index,
    xdfn_index,
    xo_index,
)
from xindices.cli import main
from xindices.stats import ReferenceStats, StatsEntry

from conftest import columns_of, items, random_records, record
from oracles import naive_g_oracle, naive_h_oracle


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def unit_stats(corpus, mean=1.0, variance=1.0):
    return ReferenceStats(
        [StatsEntry(label, mean, variance, 1) for label, _ in corpus.items("categories")[0]]
    )


@pytest.fixture(scope="module")
def degeneracy_corpora():
    """500 random corpora within the stated caps; positive citations keep
    every internal category mean positive (a zero-total category has no
    defined normalised score)."""
    rng = random.Random(20260809)
    corpora = []
    for _ in range(500):
        records = random_records(
            rng,
            max_pubs=200,
            max_categories=20,
            max_keywords=100,
            min_citations=1,
            max_citations=100,
        )
        corpora.append((records, build_corpus(columns_of(records))))
    return corpora


def test_kernel_oracle_equivalence():
    with criterion("kernel-oracle equivalence, 1200 multisets, < 5 s"):
        rng = random.Random(101)
        start = time.perf_counter()
        checked = 0
        for trial in range(1200):
            size = rng.randint(0, 50)
            if trial % 2 == 0:
                weights = [float(rng.randint(0, 100)) for _ in range(size)]
            else:
                weights = [rng.uniform(0, 100) for _ in range(size)]
            assert h_type_index(items(*weights)).value == naive_h_oracle(weights)
            assert g_type_index(items(*weights)).value == naive_g_oracle(weights)
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 1000
        assert elapsed < 5.0, f"kernel-oracle sweep took {elapsed:.2f}s"


def test_ivw_hand_worked_case():
    with criterion("hand-worked IVW case (t,v)=(9,2),(8,4),(5,10) -> 2"):
        corpus = build_corpus(
            columns_of(
                [
                    record("p1", 9, (), ("a",)),
                    record("p2", 8, (), ("b",)),
                    record("p3", 5, (), ("c",)),
                ]
            )
        )
        stats = ReferenceStats(
            [
                StatsEntry("a", 1.0, 2.0, 9),
                StatsEntry("b", 1.0, 4.0, 8),
                StatsEntry("c", 1.0, 10.0, 5),
            ]
        )
        result = ivw_xd_index(corpus, "h", stats)
        assert [row.ratio for row in result.table.rows] == [4.5, 1.0, 5 / 30]
        assert result.value == 2


def test_xo_hand_worked_case():
    with criterion("hand-worked x_o case, inner x-indices [3,2,2,1] -> 2"):
        records = []
        pid = 0
        for c, inner in enumerate((3, 2, 2, 1)):
            for k in range(inner):
                pid += 1
                records.append(record(f"p{pid}", inner, (f"c{c}k{k}",), (f"c{c}",)))
        result = xo_index(build_corpus(columns_of(records)), "h")
        assert [row.weight for row in result.table.rows] == [3.0, 2.0, 2.0, 1.0]
        assert result.value == 2


def test_degeneracy_identities(degeneracy_corpora):
    with criterion("degeneracy identities on 500 random corpora"):
        for records, corpus in degeneracy_corpora:
            # single institution per record -> fractional equals whole
            single = build_corpus(
                columns_of(
                    [
                        record(r.id, r.citations, r.keywords, r.categories, r.institutions[:1])
                        for r in records
                    ]
                )
            )
            assert xdf_index(single, "h").value == xd_index(single, "h").value

            stats = unit_stats(corpus)
            assert xdfn_index(corpus, "h", stats).value == xd_index(corpus, "h").value
            assert xdfn_index(corpus, "g", stats).value == xd_index(corpus, "g").value
            assert ivw_xd_index(corpus, "h", stats).value == xd_index(corpus, "h").value

            internal = estimate_stats(corpus)
            counts: dict[str, int] = {}
            for r in records:
                for cat in r.categories:
                    counts[cat] = counts.get(cat, 0) + 1
            expected = h_type_index(
                [(cat, float(n)) for cat, n in counts.items()]
            ).value
            assert xdfn_index(corpus, "h", internal).value == expected


def test_order_properties(degeneracy_corpora):
    with criterion("order properties (x_o <= x_d, x_d(f) <= x_d, g >= h)"):
        for records, corpus in degeneracy_corpora:
            assert xo_index(corpus, "h").value <= xd_index(corpus, "h").value
            assert xo_index(corpus, "g").value <= xd_index(corpus, "g").value
            assert xdf_index(corpus, "h").value <= xd_index(corpus, "h").value

            stats = unit_stats(corpus)
            institutions = [r.institutions for r in records]
            h_g_pairs = [
                (x_index(corpus, "h"), x_index(corpus, "g")),
                (xc_index(corpus, "h"), xc_index(corpus, "g")),
                (xd_index(corpus, "h"), xd_index(corpus, "g")),
                (xdf_index(corpus, "h"), xdf_index(corpus, "g")),
                (xo_index(corpus, "h"), xo_index(corpus, "g")),
                (xdfn_index(corpus, "h", stats), xdfn_index(corpus, "g", stats)),
                (
                    ivw_xd_index(corpus, "h", stats, rank_basis="weighted"),
                    ivw_xd_index(corpus, "g", stats, rank_basis="weighted"),
                ),
                (
                    group_index(corpus, institutions, "x", "h"),
                    group_index(corpus, institutions, "x", "g"),
                ),
            ]
            for h_result, g_result in h_g_pairs:
                assert g_result.value >= h_result.value


def test_monotonicity_under_extension():
    with criterion("appending a publication never decreases h-type x/xc/xd (200 pairs)"):
        rng = random.Random(77)
        for i in range(200):
            records = random_records(rng, max_pubs=80, min_citations=0)
            extra = record(
                "appended",
                rng.randint(0, 100),
                tuple(f"kw{rng.randint(0, 99)}" for _ in range(rng.randint(0, 3))),
                tuple(f"cat{rng.randint(0, 19)}" for _ in range(rng.randint(0, 3))),
                tuple(f"inst{rng.randint(0, 9)}" for _ in range(rng.randint(0, 2))),
            )
            before = build_corpus(columns_of(records))
            after = build_corpus(columns_of(records + [extra]))
            assert x_index(after, "h").value >= x_index(before, "h").value
            assert xc_index(after, "h").value >= xc_index(before, "h").value
            assert xd_index(after, "h").value >= xd_index(before, "h").value


def test_overlap_bias_worked_example():
    with criterion("overlap worked example: x = 1, x_c = 2"):
        corpus = build_corpus(columns_of([record("p1", 3, ("a",), ("c1", "c2"))]))
        assert x_index(corpus, "h").value == 1
        assert xc_index(corpus, "h").value == 2


def _synthetic_csv(
    path, n_pubs, kw_per_pub, n_keywords, n_categories, n_institutions, seed, decimal=False
):
    """A seeded table; with decimal, citations are whole cents written with
    two decimals."""
    rng = random.Random(seed)
    lines = ["id,citations,keywords,categories,institutions"]
    for i in range(n_pubs):
        kws = ";".join(
            f"kw{rng.randint(0, n_keywords - 1)}" for _ in range(kw_per_pub)
        )
        cats = ";".join(
            f"cat{rng.randint(0, n_categories - 1)}" for _ in range(rng.randint(1, 2))
        )
        insts = ";".join(
            f"inst{rng.randint(0, n_institutions - 1)}" for _ in range(rng.randint(1, 3))
        )
        if decimal:
            cents = rng.randint(0, 10_000)
            citations = f"{cents // 100}.{cents % 100:02d}"
        else:
            citations = rng.randint(0, 100)
        lines.append(f"p{i},{citations},{kws},{cats},{insts}")
    path.write_text("\n".join(lines) + "\n")


def test_report_determinism(tmp_path):
    with criterion("byte-identical reports across reruns and parallelism 1 vs N"):
        data = tmp_path / "corpus10k.csv"
        _synthetic_csv(data, 10_000, 4, 2_000, 50, 200, seed=4242)
        outputs = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"report_{name}.json"
            code = main(
                [
                    "compute", "--input", str(data), "--index", "xo", "--type", "h",
                    "--jobs", jobs, "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])  # parses back


def test_performance_at_scale(tmp_path):
    with criterion("50k publications: ingest < 5 s, each index < 2 s, all < 10 s"):
        data = tmp_path / "corpus50k.csv"
        _synthetic_csv(data, 50_000, 4, 5_000, 150, 500, seed=33)

        start = time.perf_counter()
        with open(data, "rb") as fh:
            columns = read_table(fh).columns
        corpus = build_corpus(columns)
        ingest_time = time.perf_counter() - start
        assert sum(map(len, columns.keywords)) > 190_000
        assert ingest_time < 5.0, f"ingestion took {ingest_time:.2f}s"

        internal = estimate_stats(corpus)
        runs = {
            "x": lambda: x_index(corpus, "h"),
            "xc": lambda: xc_index(corpus, "h"),
            "xd": lambda: xd_index(corpus, "g"),
            "xdf": lambda: xdf_index(corpus, "h"),
            "xdfn": lambda: xdfn_index(corpus, "h", internal),
            "ivw": lambda: ivw_xd_index(corpus, "h", internal, variance_floor=1e-9),
            "xo": lambda: xo_index(corpus, "h"),
        }
        total = 0.0
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            total += elapsed
            assert elapsed < 2.0, f"{name} took {elapsed:.2f}s"
        assert total < 10.0, f"all indices took {total:.2f}s"


def test_small_sample_stats_warning(tmp_path, capsys):
    with criterion("stats warning fires for every category under 100 publications"):
        lines = ["id,citations,keywords,categories"]
        pid = 0
        for cat, count in (("tiny", 3), ("mid", 40), ("big", 120)):
            for _ in range(count):
                lines.append(f"p{pid},{pid % 7},,{cat}")
                pid += 1
        data = tmp_path / "skewed.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "stats.csv"
        code = main(["stats", "--input", str(data), "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "category tiny has 3 publications" in err
        assert "category mid has 40 publications" in err
        assert "category big" not in err
