"""The dyadic kernel under the distance oracles: delta against mu, and the
falsifier's reports pinned byte for byte."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given

from gradedrel import TOP, DyadicValue, cli, delta, mu
from gradedrel.harness import CLAIMS, CONSTRAINTS, GenParams, gen_system

from strategies import small_systems, wide_sparse_systems

pytestmark = pytest.mark.deep


def assert_delta_matches_mu(sys):
    for x in range(sys.n):
        for y in range(sys.n):
            d = delta(sys, x, y)
            g = mu(sys, x, y)
            if x == y:
                assert g is TOP
                assert d is DyadicValue.zero()
            else:
                assert d == DyadicValue.pow2(-g)
                assert d.as_fraction() == Fraction(1, 2) ** g


class TestDelta:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_seeded_systems(self, constraint):
        params = GenParams(
            point_count=(1, 9), window_lo=(-40, 40), window_span=(1, 12), constraint=constraint
        )
        for seed in range(40):
            assert_delta_matches_mu(gen_system(seed, params))

    @given(small_systems())
    def test_small_systems(self, sys):
        assert_delta_matches_mu(sys)

    @given(wide_sparse_systems())
    def test_wide_windows(self, sys):
        assert_delta_matches_mu(sys)

    def test_index_errors_match_mu(self, grid):
        n = grid.n
        for x, y in [(-1, 0), (0, -1), (-1, -1), (n, 0), (0, n), (n, n), (-1, n), (n, -1), (10**20, 0)]:
            with pytest.raises(IndexError) as want:
                mu(grid, x, y)
            with pytest.raises(IndexError) as got:
                delta(grid, x, y)
            assert str(got.value) == str(want.value)
            first_bad = x if not 0 <= x < n else y
            assert str(got.value) == f"point {first_bad} out of range for {n} points"


# exit status and sha256 of the output of
# `gradedrel --json falsify CLAIM --trials 40 --seed S` for seeds 1-3: a
# change to any distance value or comparison outcome of the kernel shows
# here, since the claims play the oracles against the grade side
GOLDEN = {
    "eq1-roundtrip": (
        (0, "12597755a76d4d1d06655253d306eaf4c41f2e8eb16493fe7f4de8450fba7c82"),
        (0, "879ba7abd42efb0df25d4771f3e073f1665972f11977dec16acfcf7d7152117a"),
        (0, "c8070cc70f5a5465d109003d3c2ccc9314d01e4fac4d76961a746e13410feeb0"),
    ),
    "finite-normal-structure-exists": (
        (0, "d0fc658d7f7479d9a2d93dc3c1d7b0e879e62f11d33f5a73122b84fb0fc79f12"),
        (0, "b2cf6a595a28f99dadb04c5fcf4d00116883dcf75138bfe7e1a2ad820d6b7a97"),
        (0, "20a97b6f5f8c5746d2cc14f48257e77536d0cc025822e5a156613910e79cba3c"),
    ),
    "hull-equivalence": (
        (0, "d016bf0a8b9604edf2d2341a3404ce8ece6e444402d4de7d9ccb63d9b907739b"),
        (0, "94cc73388439c22ee5cf3c5ef3e5132e183ec08e3889395b69bc4d632d72e635"),
        (0, "7d82d76f79cd335007eed5911578592c71ceb8e22cf094836238c1aa33af328f"),
    ),
    "prop-r10-metric": (
        (1, "65984881c69ad4ef9c6761413772b3512315fd9086477378798e4a0c2bb1db07"),
        (1, "e1f3af17ec3bde364affd4d4789810be3e3fbe9ed73dc61a0f7f37d4a95497d6"),
        (1, "208a48b5a5de66963f893b0d7bb4f2f7e38bad196b24d0fe9adc99974f88aeb3"),
    ),
    "prop-r9-2-inframetric": (
        (0, "b0ffcc6fa9efc7002225b6d22bf00407619900c252db05ed34030e888190c832"),
        (0, "b0979256ce99efd167427aba1bc08d1bf781bbef705cad19de4b82ee13b5c198"),
        (0, "585e53ed854034df799d6040af7661ca65439c95f58461c8f748292e22e821da"),
    ),
    "radii-translation": (
        (0, "d23285cc314c0fd6673ef50a50c6885ecbf35bec858707d83eeeb0e44ad14376"),
        (0, "466c143dbae9bcbda120e1981aa37decb18c33711b6ddba93a029a5fbae8acd6"),
        (0, "7d13add18fdade25db84a3a0cda680c51d388f4a078bf7f58c9978ebb0864fa8"),
    ),
    "thm-asymptotic-fp": (
        (0, "0102fac2669300f4caf1343a980990d459edc0425a76b0471411237dc09dcb65"),
        (0, "0ed32bb0e50ec623ffd24a9480567a7413962a5dc269e29b900c08758fea2ba6"),
        (0, "63b10bb8200849a4a484eb3d33176c1c0b88f0cfbef4fecc9bd2717a9d148088"),
    ),
    "thm-homo-iff-nonexp": (
        (0, "4c3aaa200d5de58d8d399ed8b9f2edc4239e9dde3fe7b596748ae011f0dcd756"),
        (0, "ea610b129997865c50f9adcca74e9eb474b64a9b85f919887943599c23a1f98f"),
        (0, "f402be86989db8febc0b373f0da4b737851184fa2e56ff930c675a159d58a6fd"),
    ),
    "thm-ks-dichotomy": (
        (0, "11ab145f18d3da1963193a8bd03d7e7d682f313160bb7538ed4b2e6c15c78327"),
        (0, "73a7f81b61486f6ebd93c64d892ece00a0abb49bd00de0aa42598714ebb2eb8c"),
        (0, "a10df1f99d910a1efab96c622a548ee4d80e32bfe63e6ee5a80a9124c0989e2b"),
    ),
    "thm-regular-fp": (
        (0, "35cc107fb254940a761b2f202588dd6d068d734c1aa2cc8b99b1528645eeffa8"),
        (0, "8707127e013b90e1d6b46b895c0ac0180708255a1d189b2427cdaffd0a565558"),
        (0, "88b491224d17f45d0c365261c7c0860a2f3120f32c35988744e180cdf7864572"),
    ),
    "transitive-ultrametric": (
        (0, "bafd7a15069c4bc83aff04da304cc1043db18490c473aaf94255c281517b3d23"),
        (0, "4346eb31a41a702e03eb993269f81fedaff02c29b3bb1ed3e74edf7cf1166165"),
        (0, "82636b477ac6e552186d055bb697de7c029ceff77fb641063880ded81799f8df"),
    ),
}


def test_golden_falsify_reports(capsys):
    assert sorted(GOLDEN) == sorted(CLAIMS)
    for claim, expected in GOLDEN.items():
        for seed, (status, digest) in enumerate(expected, start=1):
            got = cli.main(["--json", "falsify", claim, "--trials", "40", "--seed", str(seed)])
            out = capsys.readouterr().out
            assert (got, hashlib.sha256(out.encode()).hexdigest()) == (status, digest), (claim, seed)
