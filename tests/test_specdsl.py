import numpy as np
import pytest

from herop.series import FileList, PowSign, PowerTail, binomial_series
from herop.specdsl import (
    FileRef,
    Inv,
    Mul,
    Poly,
    Pow1mt,
    SpecSemanticError,
    SpecSyntaxError,
    TailExtend,
    elaborate,
    parse_kernel_spec,
    pretty,
)


class TestParsing:
    def test_pow1mt(self):
        assert parse_kernel_spec("pow1mt(0.5)") == Pow1mt(0.5)

    def test_negative_exponent(self):
        assert parse_kernel_spec("pow1mt(-1)") == Pow1mt(-1.0)

    def test_poly(self):
        assert parse_kernel_spec("poly[1,-1,-1]") == Poly((1.0, -1.0, -1.0))

    def test_whitespace_insignificant(self):
        text = "  poly[ 1 , -1 ] *  pow1mt( -1 ) "
        assert parse_kernel_spec(text) == Mul(Poly((1.0, -1.0)), Pow1mt(-1.0))

    def test_division_desugars(self):
        node = parse_kernel_spec("pow1mt(0.5)/poly[1,-1]")
        assert node == Mul(Pow1mt(0.5), Inv(Poly((1.0, -1.0))))

    def test_nested(self):
        node = parse_kernel_spec("tail(inv(poly[1,-0.25]),0.05,2.0,9)")
        assert node == TailExtend(Inv(Poly((1.0, -0.25))), 0.05, 2.0, 9)

    def test_file_ref(self):
        assert parse_kernel_spec('file("data/k.txt")') == FileRef("data/k.txt")

    def test_parenthesized(self):
        node = parse_kernel_spec("(pow1mt(0.5))*(poly[2])")
        assert node == Mul(Pow1mt(0.5), Poly((2.0,)))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("pow1mt(abc)", 7),
            ("poly[]", 5),
            ("pow1mt(0.5", 10),
            ("", 0),
            ("pow1mt(0.5))", 11),
            ("poly[1,-1]*", 11),
            ("poly[1,1e309]", 7),  # past float range: input, not an overflow
            ("tail(poly[1],-1e400,2,3)", 13),
        ],
    )
    def test_syntax_errors_carry_offsets(self, text, offset):
        with pytest.raises(SpecSyntaxError) as info:
            parse_kernel_spec(text)
        assert info.value.offset == offset

    def test_zero_constant_division(self):
        with pytest.raises(SpecSemanticError):
            parse_kernel_spec("inv(poly[0,1])")
        with pytest.raises(SpecSemanticError):
            parse_kernel_spec("poly[1]/poly[0,1]")

    def test_depth_limit(self):
        deep = "inv(" * 40 + "poly[1]" + ")" * 40
        with pytest.raises(SpecSyntaxError):
            parse_kernel_spec(deep)


CORPUS_ASTS = [
    Pow1mt(0.5),
    Pow1mt(-0.5),
    Pow1mt(2.0),
    Poly((1.0, -1.0)),
    Poly((1.0, -1.0, -1.0)),
    Inv(Poly((1.0, -1.0))),
    Inv(Pow1mt(0.5)),
    Mul(Poly((1.0, -1.0)), Pow1mt(-1.0)),
    Mul(Pow1mt(0.3), Pow1mt(-0.3)),
    TailExtend(Poly((1.0, 0.2, 0.04)), 0.05, 2.0, 3),
    TailExtend(Inv(Poly((1.0, -0.25, -0.125))), 0.1, 1.5, 9),
    Mul(Mul(Pow1mt(0.25), Pow1mt(0.25)), Inv(Pow1mt(0.5))),
    FileRef("coeffs.txt"),
    Inv(Mul(Poly((1.0, -0.5)), Poly((1.0, -0.25)))),
]


def _corpus(count=50):
    specs = []
    i = 0
    while len(specs) < count:
        base = CORPUS_ASTS[i % len(CORPUS_ASTS)]
        scale = 1.0 + 0.125 * (i // len(CORPUS_ASTS))
        node = Mul(base, Poly((scale,))) if i >= len(CORPUS_ASTS) else base
        specs.append(node)
        i += 1
    return specs


class TestRoundTrip:
    def test_pretty_parse_identity_on_asts(self):
        for node in _corpus():
            assert parse_kernel_spec(pretty(node)) == node

    def test_parse_pretty_identity_on_canonical_text(self):
        for node in _corpus():
            text = pretty(node)
            assert pretty(parse_kernel_spec(text)) == text

    def test_corpus_size(self):
        assert len(_corpus()) == 50


class TestElaboration:
    def test_pow1mt_matches_binomial(self):
        series = elaborate(parse_kernel_spec("pow1mt(0.5)"), 64)
        np.testing.assert_array_equal(
            series.coeffs, binomial_series(0.5, PowSign.PLUS, 64).coeffs
        )

    def test_fibonacci_kernel(self):
        series = elaborate(parse_kernel_spec("inv(poly[1,-1,-1])"), 6)
        np.testing.assert_allclose(series.coeffs, [1, 1, 2, 3, 5, 8, 13])

    def test_telescoping_product(self):
        series = elaborate(parse_kernel_spec("poly[1,-1]*pow1mt(-1)"), 8)
        expected = np.zeros(9)
        expected[0] = 1.0
        np.testing.assert_allclose(series.coeffs, expected, atol=1e-14)

    def test_tail_extension_semantics(self):
        series = elaborate(parse_kernel_spec("tail(poly[1,0.5],0.05,2.0,2)"), 8)
        np.testing.assert_allclose(series.coeffs[:2], [1.0, 0.5])
        n = np.arange(2.0, 9.0)
        np.testing.assert_allclose(series.coeffs[2:], 0.05 * n**-2.0)
        assert series.generator == PowerTail(0.05, 2.0, 2)

    def test_file_elaboration(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("1.0\n0.25\n0.0625\n", encoding="utf-8")
        series = elaborate(parse_kernel_spec(f'file("{path}")'), 5)
        np.testing.assert_allclose(series.coeffs, [1.0, 0.25, 0.0625, 0, 0, 0])
        assert isinstance(series.generator, FileList)

    def test_division_elaborates_to_delta(self):
        series = elaborate(parse_kernel_spec("pow1mt(0.5)/pow1mt(0.5)"), 32)
        expected = np.zeros(33)
        expected[0] = 1.0
        assert np.max(np.abs(series.coeffs - expected)) <= 1e-12
