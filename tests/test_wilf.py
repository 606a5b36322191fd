import hashlib
import json

import pytest

import treewilf.wilf
from treewilf.trees import Alphabet, catalan, emit_polish, parse_polish
from treewilf.wilf import (
    CSV_HEADER,
    classify,
    stabilization_scan,
)


# sha256 of classify(n, 257, mode, workers=1).canonical_bytes(); a change to
# the solver, the systems or the report format that moves any byte shows here.
REPORT_DIGESTS = {
    ("av", 2): "0b89946911c217c1db6e012a1380eda8bbd85fed9567acf5acf83a8992ec9f8f",
    ("av", 3): "f111df79ef14bb795b6ccf1c0ff2f7113c479a98eba61fe09c4e5072ef15ec06",
    ("av", 4): "52c64c162ad13f85c348a2395df578f93856a902c40d006e7db76adf566afd35",
    ("av", 5): "c17c838ceb38f3eda9b62cc5e5fe688e012b6868934e39a56fc39b8988ffa5a2",
    ("av", 6): "04190f6a5aed1fc3d981155d7e54af4c3c1eb3a28aee625841b180932c4a1559",
    ("av", 7): "a7b487e10a651c57b82f049c92de0b75b1960dfa1d3f70b75daddace5f129dc1",
    ("en", 2): "25412dd4bb47071fd552800fb7598c052458a71bbda9768eefc54878aa44173f",
    ("en", 3): "4892800281f2ac56509822cc79bb32225596db92b51fa7c6be429dc6880bda85",
    ("en", 4): "6a03741b3e6a23fc9b8340fe21eeb83ea51cdb3e51c78236558e39397f4efe2d",
}


@pytest.mark.parametrize("mode,n", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(mode, n):
    report = classify(n, 257, mode, workers=1)
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == REPORT_DIGESTS[(mode, n)]


class TestClassify:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 7)])
    def test_small_class_counts(self, n, expected):
        report = classify(n, 60, "av")
        assert report.class_count == expected

    def test_partition_completeness(self):
        report = classify(5, 40, "av")
        sizes = [len(c.members) for c in report.classes]
        assert sum(sizes) == catalan(4) == report.pattern_count
        members = [w for c in report.classes for w in c.members]
        assert len(members) == len(set(members))

    def test_mirror_pairs_share_class(self):
        report = classify(5, 40, "av", mirror_reduce=False)
        from treewilf.wilf import _mirror_word

        cls_of = {w: i for i, c in enumerate(report.classes) for w in c.members}
        for w in cls_of:
            assert cls_of[w] == cls_of[_mirror_word(w)]

    def test_en_refines_av(self):
        av = classify(5, 60, "av")
        en = classify(5, 60, "en")
        av_of = {w: i for i, c in enumerate(av.classes) for w in c.members}
        for c in en.classes:
            assert len({av_of[w] for w in c.members}) == 1

    def test_deterministic_across_worker_counts(self):
        serial = classify(5, 40, "av", workers=1)
        parallel = classify(5, 40, "av", workers=2)
        assert serial.canonical_bytes() == parallel.canonical_bytes()

    @pytest.mark.parametrize("workers, size", [(64, 3), (2, 2)])
    def test_pool_never_exceeds_the_jobs(self, monkeypatch, workers, size):
        opened = []

        class InProcessPool:
            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, jobs, chunksize):
                assert chunksize == 1
                return map(fn, jobs)

        monkeypatch.setattr(treewilf.wilf, "Pool", InProcessPool)
        report = classify(4, 40, "av", workers=workers)  # 3 mirror representatives
        assert opened == [size]
        assert json.loads(report.to_json())["timing"]["workers"] == workers
        assert report.canonical_bytes() == classify(4, 40, "av", workers=1).canonical_bytes()

    def test_mirror_reduce_only_changes_metadata(self):
        fast = classify(4, 40, "av", mirror_reduce=True)
        slow = classify(4, 40, "av", mirror_reduce=False)
        assert fast.partition() == slow.partition()
        assert fast.class_count == slow.class_count
        assert fast.canonical_bytes() != slow.canonical_bytes()  # the flag is recorded

    def test_mirror_check_catches_a_split_pair(self, monkeypatch):
        real = treewilf.wilf.av_series

        def wrong_for_mxmxx(tree, order):
            if emit_polish(tree) == "mxmxx":
                tree = parse_polish("mxx", Alphabet.binary())
            return real(tree, order)

        monkeypatch.setattr(treewilf.wilf, "av_series", wrong_for_mxmxx)
        assert classify(3, 40, "av").class_count == 1  # mxmxx is never solved
        with pytest.raises(AssertionError, match="mirror pair"):
            classify(3, 40, "av", mirror_reduce=False)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_failure_names_its_pattern(self, monkeypatch, workers):
        real = treewilf.wilf.av_series

        def boom_for_mmxxx(tree, order):
            if emit_polish(tree) == "mmxxx":
                raise ArithmeticError("boom")
            return real(tree, order)

        # the pool forks, so its workers see the patched solver
        monkeypatch.setattr(treewilf.wilf, "av_series", boom_for_mmxxx)
        with pytest.raises(RuntimeError, match=r"mmxxx \(av, K=40\).*boom"):
            classify(3, 40, "av", workers=workers, mirror_reduce=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify(1, 40)
        with pytest.raises(ValueError):
            classify(4, 40, "zz")
        with pytest.raises(ValueError):
            classify(8, 10)

    def test_report_json_and_csv(self):
        report = classify(4, 40, "av")
        data = json.loads(report.to_json())
        assert data["class_count"] == 2
        assert data["exactness"] == "lower_bound"
        assert "timing" in data
        assert "timing" not in json.loads(report.canonical_bytes())
        assert len(data["classes"][0]["series_prefix"]) > 0
        row = report.csv_row().split(",")
        assert row[0] == "4" and row[3] == "2"
        assert CSV_HEADER.startswith("n,K,mode")

    def test_summary_line(self):
        report = classify(3, 20, "av")
        assert report.summary_line() == "n=3 mode=av K=20 classes=1"


class TestStabilization:
    def test_three_leaves_stable_immediately(self):
        scan = stabilization_scan(3, [6, 10, 20], "av")
        assert scan == {6: 1, 10: 1, 20: 1}

    def test_five_leaves(self):
        # order 10 only sees trees up to one vertex beyond the patterns
        # themselves, where every 5-leaf pattern looks alike
        scan = stabilization_scan(5, [10, 20, 40], "av")
        assert scan == {10: 1, 20: 3, 40: 3}

    def test_monotone_in_order(self):
        scan = stabilization_scan(6, [12, 24, 48, 96], "av")
        counts = [scan[k] for k in (12, 24, 48, 96)]
        assert counts == sorted(counts)
        assert counts[-1] == 7

    def test_matches_classify(self):
        scan = stabilization_scan(4, [20, 40], "av")
        assert scan[40] == classify(4, 40, "av").class_count
        assert scan[20] == classify(4, 20, "av").class_count

    def test_order_list_validation(self):
        with pytest.raises(ValueError):
            stabilization_scan(4, [40, 20], "av")
        with pytest.raises(ValueError):
            stabilization_scan(4, [], "av")
        with pytest.raises(ValueError, match="orders must be >= 1"):
            stabilization_scan(4, [0])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            stabilization_scan(5, [20], "bogus")

    def test_too_few_leaves(self):
        with pytest.raises(ValueError, match="at least 2 leaves"):
            stabilization_scan(1, [20])


class TestCrossCheck:
    def test_small_sizes_agree(self):
        for n, order in ((4, 40), (5, 60)):
            assert classify(n, order, "av").partition() == classify(n, order, "en").partition()

    def test_six_leaves(self):
        av = classify(6, 100, "av", workers=2)
        assert av.partition() == classify(6, 100, "en", workers=2).partition()
