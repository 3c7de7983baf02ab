"""Tree construction, boundary assignment rules, compatibility checks and
the serialization round trip."""

import random
from collections import Counter

import numpy as np
import pytest

from treegibbs import _exchange
from treegibbs import (
    CapacityError,
    CompatibilityReport,
    FieldLabel,
    FieldPair,
    SchemeMatrix,
    assign_fields,
    build_tree,
    enumerate_schemes,
    export_assignment,
    f_theta,
    numeric_field,
    parse_assignment,
    reduce,
    solve_scalar,
    solve_system,
    verify_compatibility,
)

H_STAR_2_08 = 2.0634370688955605

ORDER_SIX_MIXED = SchemeMatrix(k=6, a=(2, 1, 1, 2), b=(1, 1, 2, 2))


# schemes of each order under which all four labels occur below the root
MIXED = {
    1: SchemeMatrix(k=1, a=(0, 0, 1, 0), b=(0, 1, 0, 0)),
    2: SchemeMatrix(k=2, a=(1, 0, 0, 1), b=(0, 1, 1, 0)),
    3: SchemeMatrix(k=3, a=(1, 1, 1, 0), b=(0, 1, 1, 1)),
    7: SchemeMatrix(k=7, a=(2, 1, 3, 1), b=(1, 2, 1, 3)),
    10: SchemeMatrix(k=10, a=(3, 2, 1, 4), b=(1, 4, 3, 2)),
    12: SchemeMatrix(k=12, a=(4, 3, 2, 3), b=(2, 3, 4, 3)),
}

# the code layout: bit 0 set for L-type, bit 1 set for negative
LABEL_OF_CODE = {
    0: FieldLabel.PLUS_H,
    1: FieldLabel.PLUS_L,
    2: FieldLabel.MINUS_H,
    3: FieldLabel.MINUS_L,
}


def _child_label_counter(asg, v):
    return Counter(asg.labels[c].value for c in asg.tree.children(v))


def _canonical_block(m, lab):
    row = m.a if lab.is_h_type else m.b
    plus_h, plus_l = (FieldLabel.PLUS_H, FieldLabel.PLUS_L) if lab.sign > 0 else (
        FieldLabel.MINUS_H, FieldLabel.MINUS_L)
    return ([plus_h] * row[0] + [plus_h.negated()] * row[1]
            + [plus_l] * row[2] + [plus_l.negated()] * row[3])


def _literal_seeded_labels(tree, m, root, seed):
    """Per-vertex reference of the seeded labelling: level by level, one
    draw of 8 random bytes per child, and each vertex's canonical child
    block ordered by its children's keys."""
    rng = random.Random(seed)
    labels = [root]
    for level in range(tree.depth):
        parents = labels[tree.level_offsets[level] : tree.level_offsets[level + 1]]
        keys = np.frombuffer(rng.randbytes(8 * len(parents) * tree.k), dtype="<u8")
        for i, lab in enumerate(parents):
            block = _canonical_block(m, lab)
            order = sorted(range(tree.k), key=lambda j: keys[i * tree.k + j])
            labels.extend(block[j] for j in order)
    return tuple(labels)


def _literal_numeric_fields(asg):
    h, l = asg.values.h, asg.values.l
    value_of = {FieldLabel.PLUS_H: h, FieldLabel.MINUS_H: -h,
                FieldLabel.PLUS_L: l, FieldLabel.MINUS_L: -l}
    return np.array([value_of[lab] for lab in asg.labels], dtype=float)


def _literal_export(asg):
    tree = asg.tree
    lines = [f"k={tree.k} n={tree.depth} h={asg.values.h!r} l={asg.values.l!r}"]
    lines += [f"{v}\t{tree.parent(v)}\t{asg.labels[v].value}" for v in range(tree.num_vertices)]
    return "\n".join(lines) + "\n"


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBuildTree:
    def test_depth_zero(self):
        tree = build_tree(2, 0)
        assert tree.num_vertices == 1
        assert list(tree.children(0)) == []

    def test_vertex_count(self):
        tree = build_tree(2, 3)
        assert tree.num_vertices == 15
        assert [len(tree.level(m)) for m in range(4)] == [1, 2, 4, 8]

    def test_level_width(self):
        tree = build_tree(6, 2)
        assert len(tree.level(2)) == 36

    def test_heap_indexing(self):
        tree = build_tree(3, 2)
        assert list(tree.children(0)) == [1, 2, 3]
        assert list(tree.children(2)) == [7, 8, 9]
        assert tree.parent(9) == 2
        assert tree.parent(0) == -1

    def test_unary_tree(self):
        tree = build_tree(1, 4)
        assert tree.num_vertices == 5
        assert list(tree.children(3)) == [4]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_tree(10, 7)
        assert build_tree(10, 5).num_vertices == 111_111
        with pytest.raises(ValueError):
            build_tree(0, 2)


class TestAssignFields:
    def test_order_six_root_plus_h(self):
        tree = build_tree(6, 1)
        asg = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.PLUS_H, FieldPair(1.0, 0.5))
        assert _child_label_counter(asg, 0) == {"+H": 2, "-H": 1, "+L": 1, "-L": 2}

    def test_order_six_root_minus_l(self):
        tree = build_tree(6, 1)
        asg = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.MINUS_L, FieldPair(1.0, 0.5))
        assert _child_label_counter(asg, 0) == {"-H": 1, "+H": 1, "-L": 2, "+L": 2}

    def test_translation_invariant_all_plus_h(self):
        tree = build_tree(3, 3)
        m = SchemeMatrix(k=3, a=(3, 0, 0, 0), b=(3, 0, 0, 0))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(0.7, 0.0))
        assert all(lab is FieldLabel.PLUS_H for lab in asg.labels)

    def test_global_sign_symmetry(self):
        tree = build_tree(6, 2)
        plus = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.PLUS_H, FieldPair(1.0, 0.5))
        minus = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.MINUS_H, FieldPair(1.0, 0.5))
        assert all(a is b.negated() for a, b in zip(minus.labels, plus.labels))

    def test_order_mismatch(self):
        tree = build_tree(2, 2)
        with pytest.raises(ValueError):
            assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.PLUS_H, FieldPair(1.0, 0.5))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_child_multisets_exhaustive(self, k):
        # every internal vertex realizes the scheme row of its label type,
        # for every scheme, every root label, depth up to 4
        depth = 4 if k <= 3 else 3
        tree = build_tree(k, depth)
        values = FieldPair(0.9, 0.4)
        for m in enumerate_schemes(k):
            for root in FieldLabel:
                asg = assign_fields(tree, m, root, values)
                for v in range(tree.level_offsets[depth]):
                    lab = asg.labels[v]
                    row = m.a if lab.is_h_type else m.b
                    s = lab.sign
                    want = {
                        _label_value(True, s): row[0],
                        _label_value(True, -s): row[1],
                        _label_value(False, s): row[2],
                        _label_value(False, -s): row[3],
                    }
                    want = {key: n for key, n in want.items() if n}
                    assert _child_label_counter(asg, v) == want

    def test_seeded_permutation_keeps_multisets(self):
        # a shuffled assignment still realizes the scheme row of each
        # vertex's own (shuffled) label
        tree = build_tree(6, 2)
        base = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.PLUS_H, FieldPair(1.0, 0.5))
        shuffled = assign_fields(
            tree, ORDER_SIX_MIXED, FieldLabel.PLUS_H, FieldPair(1.0, 0.5), seed=7
        )
        assert shuffled.labels != base.labels
        for v in range(tree.level_offsets[2]):
            lab = shuffled.labels[v]
            row = ORDER_SIX_MIXED.a if lab.is_h_type else ORDER_SIX_MIXED.b
            s = lab.sign
            want = {
                _label_value(True, s): row[0],
                _label_value(True, -s): row[1],
                _label_value(False, s): row[2],
                _label_value(False, -s): row[3],
            }
            want = {key: n for key, n in want.items() if n}
            assert _child_label_counter(shuffled, v) == want

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("k, depth", [(1, 9), (3, 4), (7, 2)])
    def test_labels_agree_with_codes(self, k, depth, seed):
        asg = assign_fields(build_tree(k, depth), MIXED[k], FieldLabel.MINUS_L,
                            FieldPair(0.9, 0.4), seed=seed)
        assert asg.codes.dtype == np.int8
        assert asg.labels == tuple(LABEL_OF_CODE[c] for c in asg.codes.tolist())
        assert all(asg.label_at(v) is asg.labels[v] for v in range(asg.tree.num_vertices))
        assert asg.labels is asg.labels  # decoded once
        with pytest.raises(ValueError):
            asg.codes[0] = 1  # read-only

    @pytest.mark.parametrize("k, depth, seed", [(2, 6, 0), (3, 4, 7), (7, 2, 123456789)])
    def test_seeded_labelling_matches_reference(self, k, depth, seed):
        # behaviour change: keys from random.Random(seed).randbytes order
        # each child block, one level at a time; the per-vertex
        # rng.shuffle of earlier versions gave another labelling
        tree = build_tree(k, depth)
        m = MIXED[k]
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(0.9, 0.4), seed=seed)
        assert asg.labels == _literal_seeded_labels(tree, m, FieldLabel.PLUS_H, seed)
        rng = random.Random(seed)
        old = [FieldLabel.PLUS_H]
        for v in range(tree.level_offsets[depth]):
            block = _canonical_block(m, old[v])
            rng.shuffle(block)
            old.extend(block)
        assert asg.labels != tuple(old)

    def test_same_seed_same_labels(self):
        tree = build_tree(6, 3)
        values = FieldPair(1.0, 0.5)
        first = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.MINUS_H, values, seed=42)
        again = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.MINUS_H, values, seed=42)
        other = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.MINUS_H, values, seed=43)
        assert first.labels == again.labels
        assert np.array_equal(first.codes, again.codes)
        assert first.labels != other.labels

    def test_seeded_shuffle_is_uniform(self):
        # three distinct children: each of the 6 orders should come up
        # 500 times in 3000 seeds (sd 20.4); the bounds are 4.9 sd wide
        tree = build_tree(3, 1)
        m = SchemeMatrix(k=3, a=(1, 1, 1, 0), b=(0, 0, 3, 0))
        orders = Counter(
            assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(0.9, 0.4), seed=s).labels[1:]
            for s in range(3000)
        )
        assert len(orders) == 6
        assert all(400 < n < 600 for n in orders.values())

    def test_interface_scheme_has_interfaces_at_every_level(self):
        # two-valued interface pattern: some child always flips sign, so
        # every level below the root contains a sign change from the parent
        tree = build_tree(5, 4)
        m = SchemeMatrix(k=5, a=(3, 0, 1, 1), b=(3, 0, 1, 1))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(0.7, 0.7))
        for level in range(1, 5):
            assert any(
                asg.labels[v].sign != asg.labels[tree.parent(v)].sign
                for v in tree.level(level)
            )


def _label_value(h_type: bool, sign: int) -> str:
    return ("+" if sign > 0 else "-") + ("H" if h_type else "L")


class TestNumericField:
    def test_mapping(self):
        tree = build_tree(6, 1)
        asg = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.PLUS_H, FieldPair(2.063, 0.5))
        by_label = {}
        for v in range(tree.num_vertices):
            by_label[asg.labels[v].value] = numeric_field(asg, v)
        assert by_label["+H"] == 2.063
        assert by_label["-H"] == -2.063
        assert by_label["+L"] == 0.5
        assert by_label["-L"] == -0.5

    def test_zero_values(self):
        tree = build_tree(6, 1)
        asg = assign_fields(tree, ORDER_SIX_MIXED, FieldLabel.MINUS_L, FieldPair(0.0, 0.0))
        assert all(numeric_field(asg, v) == 0.0 for v in range(tree.num_vertices))

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("values", [FieldPair(0.9, -0.35), FieldPair(0.0, 0.6),
                                        FieldPair(0.7, 0.0), FieldPair(0.0, 0.0)])
    def test_matches_literal_bitwise(self, values, seed):
        asg = assign_fields(build_tree(3, 4), MIXED[3], FieldLabel.MINUS_H, values, seed=seed)
        fields = asg.numeric_fields()
        assert _bitwise_equal(fields, _literal_numeric_fields(asg))
        # a zero field keeps its sign on negative labels
        negative = np.array([lab.sign < 0 for lab in asg.labels])
        for value, h_type in ((values.h, True), (values.l, False)):
            if value == 0.0:
                mask = negative & np.array([lab.is_h_type is h_type for lab in asg.labels])
                assert mask.any() and np.signbit(fields[mask]).all()

    def test_unknown_vertex(self):
        tree = build_tree(2, 1)
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(1.0, 0.0))
        with pytest.raises(KeyError):
            numeric_field(asg, 99)


class TestVerifyCompatibility:
    def test_zero_fields_pass(self):
        tree = build_tree(2, 3)
        m = SchemeMatrix(k=2, a=(1, 1, 0, 0), b=(0, 0, 1, 1))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(0.0, 0.0))
        report = verify_compatibility(asg, 0.7)
        assert report.max_residual == 0.0 and report.passed

    def test_solved_pair_passes(self):
        tree = build_tree(2, 3)
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        h_star = solve_scalar(2, 0.8)[-1]
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(h_star, 0.0))
        assert verify_compatibility(asg, 0.8, tol=1e-9).passed

    def test_non_root_value_fails(self):
        tree = build_tree(2, 3)
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(1.0, 0.0))
        report = verify_compatibility(asg, 0.8, tol=1e-9)
        assert not report.passed
        assert report.max_residual > 1e-3

    @pytest.mark.parametrize("seed", [None, 17])
    @pytest.mark.parametrize("k, depth", [(1, 6), (2, 6), (3, 4), (7, 2), (10, 2), (12, 2)])
    def test_matches_literal_formula_bitwise(self, k, depth, seed):
        # f_theta on every vertex field, children summed by reshape: the
        # report must agree to the last bit, for solved and moved pairs
        # (at k=12 a child-by-child sum would move the worst residual)
        tree = build_tree(k, depth)
        m = MIXED[k]
        theta = 0.83
        pairs = [p for p in solve_system(reduce(m), theta) if p.h != 0.0 and p.l != 0.0]
        for pair in pairs[:2] + [FieldPair(0.61, -0.27)]:
            for root in FieldLabel:
                asg = assign_fields(tree, m, root, pair, seed=seed)
                vals = _literal_numeric_fields(asg)
                n_internal = tree.level_offsets[depth]
                sums = f_theta(theta, vals)[1:].reshape(n_internal, k).sum(axis=1)
                residuals = np.abs(vals[:n_internal] - sums)
                worst = int(np.argmax(residuals))
                expected = CompatibilityReport(
                    float(residuals[worst]), worst, bool(residuals[worst] < 1e-9), 1e-9
                )
                report = verify_compatibility(asg, theta)
                assert report == expected
                assert report.max_residual.hex() == expected.max_residual.hex()

    def test_depth_zero_rejected(self):
        tree = build_tree(2, 0)
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(1.0, 0.0))
        with pytest.raises(ValueError):
            verify_compatibility(asg, 0.8)


def _small_assignment():
    return assign_fields(build_tree(3, 2), MIXED[3], FieldLabel.PLUS_H, FieldPair(1.0, 0.5))


def _mutated_texts():
    """Exported text of a 13-vertex tree, each time with one fault."""
    text = export_assignment(_small_assignment())
    header, *body = text.splitlines()
    line = {int(ln.split("\t")[0]): ln for ln in body}

    def joined(lines):
        return "\n".join([header] + lines) + "\n"

    def replaced(v, new):
        return joined([new if i == v else line[i] for i in range(13)])

    return {
        "wrong parent": replaced(5, "5\t2\t" + line[5].split("\t")[2]),
        "swapped lines": joined([line[i] for i in (0, 1, 2, 3, 5, 4, 6, 7, 8, 9, 10, 11, 12)]),
        "duplicated line": joined([line[i] for i in range(13)] + [line[12]]),
        "duplicate in place": replaced(7, line[6]),
        "missing line": joined([line[i] for i in range(13) if i != 8]),
        "missing last line": joined([line[i] for i in range(12)]),
        "no final newline": text[:-1],
        "blank line": joined([line[i] for i in range(7)] + [""] + [line[i] for i in range(7, 13)]),
        "label +X": replaced(9, "9\t2\t+X"),
        "label in lower case": replaced(9, "9\t2\t+h"),
        "space for tab": replaced(9, line[9].replace("\t", " ", 1)),
        "zero-padded vertex": replaced(9, "0" + line[9]),
        "CRLF line end": text.replace("\n", "\r\n", 2),
        "trailing garbage": text + "13\t4\t+H\n",
        "trailing text": text + "x",
        "non-ASCII digit": replaced(3, "\u0663" + line[3][1:]),
        "non-ASCII label": replaced(3, line[3][:-1] + "\u0124"),
        "header deeper than body": text.replace("n=2", "n=3", 1),
        "header shallower than body": text.replace("n=2", "n=1", 1),
        "header of another order": text.replace("k=3", "k=2", 1),
        "header keys reordered": text.replace("k=3 n=2", "n=2 k=3", 1),
        "header spacing": text.replace("k=3 n=2", "k=3  n=2", 1),
        "header float spelling": text.replace("h=1.0", "h=1.00", 1),
        "header only": header + "\n",
        "empty": "",
    }


MUTATIONS = _mutated_texts()


class TestSerialization:
    def test_round_trip(self):
        tree = build_tree(2, 3)
        m = SchemeMatrix(k=2, a=(1, 0, 1, 0), b=(1, 0, 0, 1))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(H_STAR_2_08, 0.25))
        text = export_assignment(asg)
        parsed = parse_assignment(text)
        assert parsed.labels == asg.labels
        assert parsed.values == asg.values
        assert parsed.tree.k == 2 and parsed.tree.depth == 3
        assert export_assignment(parsed) == text

    def test_header_format(self):
        tree = build_tree(2, 1)
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(1.5, 0.0))
        first = export_assignment(asg).splitlines()[0]
        assert first == "k=2 n=1 h=1.5 l=0.0"

    def test_rejects_truncated(self):
        tree = build_tree(2, 1)
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        text = export_assignment(assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(1.0, 0.0)))
        with pytest.raises(ValueError):
            parse_assignment("\n".join(text.splitlines()[:-1]))
        with pytest.raises(ValueError):
            parse_assignment("")

    @pytest.mark.parametrize(
        "k, depth, seed",
        [
            (2, 0, None),  # the root line alone
            (1, 0, None),
            (1, 120, None),  # vertex and parent cross 9/10 and 99/100
            (2, 7, None),  # parent widths change at 21 and 201
            (3, 5, None),  # ... at 31 and 301
            (7, 3, None),  # ... at 71
            (10, 5, None),  # 111,111 vertices: 6-digit vertices, 5-digit parents
            (3, 5, 11),
            (2, 7, 3),
        ],
    )
    def test_export_matches_literal_writer(self, k, depth, seed):
        asg = assign_fields(build_tree(k, depth), MIXED[k], FieldLabel.PLUS_L,
                            FieldPair(0.8, -0.45), seed=seed)
        text = export_assignment(asg)
        assert text == _literal_export(asg)
        back = parse_assignment(text)
        assert np.array_equal(back.codes, asg.codes) and back.values == asg.values

    @pytest.mark.parametrize("shift, step", [(0, 1), (1, 3), (1, 1000)])
    @pytest.mark.parametrize("width", range(1, 9))
    def test_digit_groups_match_decimal(self, width, shift, step):
        # the digit columns of (v - shift) // step, v a vertex and
        # (v - 1) // k its parent, at every width up to 8 digits (7 and 8
        # only occur in trees built with a raised vertex cap); from 5
        # digits on the low group of four wraps past a multiple of 10^4
        lo = 10 ** (width - 1) + (9990 if width >= 5 else 0)
        hi = min(lo + 40, 10**width)
        start, stop = lo * step + shift, (hi - 1) * step + shift + 1
        rows = np.zeros((stop - start, width), dtype=np.uint8)
        for col, values in _exchange._digit_fields(start, stop, shift, step, width, 0):
            rows[:, col : col + values.itemsize].view(values.dtype)[:, 0] = values
        expected = [f"{(v - shift) // step}".encode() for v in range(start, stop)]
        assert [row.tobytes() for row in rows] == expected

    def test_trailing_whitespace_allowed(self):
        text = export_assignment(_small_assignment())
        assert parse_assignment(text + "\n \t\n\n").labels == _small_assignment().labels

    @pytest.mark.parametrize("case", sorted(MUTATIONS))
    def test_parse_rejects(self, case):
        with pytest.raises(ValueError):
            parse_assignment(MUTATIONS[case])

    def test_header_over_cap_is_capacity_error(self):
        with pytest.raises(CapacityError):
            parse_assignment("k=10 n=7 h=0.5 l=0.0\n")
