"""The reports that list point sets, pinned byte for byte: `hulls` in both
modes, `fixpoint` and `dynamics`, as `--json` output on the fixtures and on
seeded 13-16-point systems."""

import contextlib
import dataclasses
import hashlib
import io

from gradedrel import GenParams, cli, gen_system, serialize_selfmap, serialize_system
from gradedrel.dynamics import SelfMap, identity_map
from gradedrel.fixtures import (
    chain_successor,
    dyadic_grid,
    grid_reflection,
    lopsided_triple,
    pair_swap,
    twin_pair,
    ultrametric_chain,
)
from gradedrel.harness import gen_self_map

# seeds of gen_system with 13-16 points: 13, 14, 15 and 16 points, with
# closure families of 660, 825, 2,764 and 4,372 members
SEEDS = (2, 4, 5, 0)


def _inputs():
    """(name, system, {map name: map}) for every system the reports run on."""
    grid_maps = {"reflection": grid_reflection(), "collapse": SelfMap((0, 0, 0, 0, 4))}
    yield "grid", dyadic_grid(), grid_maps
    yield "triple", lopsided_triple(), {"identity": identity_map(3)}
    yield "chain", ultrametric_chain(), {"successor": chain_successor()}
    yield "twins", twin_pair(), {"swap": pair_swap()}
    for seed in SEEDS:
        sys = gen_system(seed, GenParams(point_count=(13, 16), window_span=(3, 6)))
        if seed == SEEDS[0]:
            # labels that JSON must escape: quotes, backslashes, non-ASCII
            marks = '"\\é\u2603q'
            labels = tuple(marks[i % len(marks)] + str(i) for i in range(sys.n))
            sys = dataclasses.replace(sys, labels=labels)
        maps = {
            "hom": gen_self_map(seed, sys, "homomorphism"),
            "any": gen_self_map(seed, sys, "any"),
        }
        yield f"seed{seed}", sys, maps


def report_digests() -> dict[str, tuple[int, str]]:
    """Write every input into the working directory and return, per command
    line, the exit status and the sha256 of what `main` prints."""
    argvs = []
    for name, sys, maps in _inputs():
        system = f"{name}.grs"
        with open(system, "w", encoding="utf-8") as fh:
            fh.write(serialize_system(sys))
        argvs.append(["hulls", system, "--mode", "paper"])
        argvs.append(["hulls", system, "--mode", "closure"])
        for map_name, t in maps.items():
            selfmap = f"{name}-{map_name}.map"
            with open(selfmap, "w", encoding="utf-8") as fh:
                fh.write(serialize_selfmap(t))
            argvs.append(["fixpoint", system, selfmap])
            argvs.append(["dynamics", system, selfmap])
    out = {}
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["--json", *argv])
        out[" ".join(argv)] = (status, hashlib.sha256(buf.getvalue().encode()).hexdigest())
    return out


# exit status and sha256 of `gradedrel --json ARGV`: a change to any label,
# member order, witness ball or map verdict of these reports shows here
GOLDEN = {
    'hulls grid.grs --mode paper': (0, '85eba4bfaac415e99efebbcf9b28f4fb474f8dbfa1a6cb7e4d409e5595155a96'),
    'hulls grid.grs --mode closure': (0, 'de32408f752412a2f5a8c6cd26622902b48b346e48b04f669b6f175add237f83'),
    'fixpoint grid.grs grid-reflection.map': (0, '03be4ed1bfce108c73df95000f14c4bcdf2bd3c2ec664e0584dfd8140bb89e5e'),
    'dynamics grid.grs grid-reflection.map': (0, '61deca0bac5731c9d21737200cef69b1d8448c022bb2de4adfa613ad57e25abb'),
    'fixpoint grid.grs grid-collapse.map': (0, '34dfea800c168ff9ea7bf97544c7607c67a51c20e276a971006cf159b88d05a3'),
    'dynamics grid.grs grid-collapse.map': (1, '0e91e257c2953e31f66031d4584dac636318c423cb6f624c619cca428393f33a'),
    'hulls triple.grs --mode paper': (0, '6c774442975f111e0dfd42cd4abe23ce8bdbd05124c5e59631604b480a4bc5e1'),
    'hulls triple.grs --mode closure': (0, '33ca16799e0b5b43a10c2ab10f2593d9119d07cdecbc6d8cb9c968e9a43907ba'),
    'fixpoint triple.grs triple-identity.map': (0, 'fce1f7eefaa28b85160e3b7c4216f3ffad4efdc14b7a920bda4d6e59cbf9448d'),
    'dynamics triple.grs triple-identity.map': (0, 'e3f9b233fc622681472a140ce3db18dccf90268472dc83b1ae2a3ea39eae7e06'),
    'hulls chain.grs --mode paper': (0, '86258552547deaa7ce324b80beaac54aed24cb75d8cb579f260f2f00001c3da8'),
    'hulls chain.grs --mode closure': (0, '8b876177281bded2404502aeb4f393014549c043dc240d2a29dc5cbe3d44edc9'),
    'fixpoint chain.grs chain-successor.map': (0, 'dba5b6f4f762706480de6cfcb0204f4f6d1601739cc0dab988108b5fe493ecef'),
    'dynamics chain.grs chain-successor.map': (0, '99a331eea289c9f5cf5c999e9d3a2a3a17f87ac072fd10f6203adeb23fd2cbc1'),
    'hulls twins.grs --mode paper': (0, '5aaf415d6cdbc7a3775f4921ccb03907ae81cd962de65445dcd0b5c6e7624f5f'),
    'hulls twins.grs --mode closure': (0, '50bf2a8a065af48f644c82d9a5b860758253bb31378b25bd3f9c2dd45dda32fc'),
    'fixpoint twins.grs twins-swap.map': (0, '421641e7fe98fe04ba75816478cdc413c35cbc5e66af0f98d6e1ba22a61f6823'),
    'dynamics twins.grs twins-swap.map': (0, '1eb132db923227647932432a4c3e68afbb8eb00fd731b0a8b3d8b569d666c3f6'),
    'hulls seed2.grs --mode paper': (0, 'd184054d4ca5d9b2f6a0d28790c16f5bcae4572a35dee353a74f766c8ac6c053'),
    'hulls seed2.grs --mode closure': (0, '6d49f062c98f324b850c76d22bc763b7c14a9796fccf15f818d5136d40999300'),
    'fixpoint seed2.grs seed2-hom.map': (0, '72d82fbe61d605c7a55f8093d71f7b94768969bb10a8f807acf55bb63631e910'),
    'dynamics seed2.grs seed2-hom.map': (0, '0d53c81c1bfaf50b78f9b6aa7e73b747560fcee7cd04572a2e6b0312804a2d65'),
    'fixpoint seed2.grs seed2-any.map': (0, 'a488fa7b61c9760959c7c537d7f12d4fe692e6ff92c24bc7e763693c780491a8'),
    'dynamics seed2.grs seed2-any.map': (1, '93ec0002b7d083e228c229e0f392c709567867b0177e5f1dd04a7981c8e0bef8'),
    'hulls seed4.grs --mode paper': (0, 'e3bb28cb237c46958bd3c3107255a20d5ec50350da9567a60a2234ba644ade85'),
    'hulls seed4.grs --mode closure': (0, '5c2e3045eb0f7de4a4a0df690762a78b46f3e43824551faef5a9e3d463f2ad4c'),
    'fixpoint seed4.grs seed4-hom.map': (0, '75255c3c5d28b24a4b8919c421b1e211aaa0a43a8ea86e72a0b7be3896ab5ece'),
    'dynamics seed4.grs seed4-hom.map': (0, '694b44fa0fc5d93e98f0d2076230b3d747bbd11fee325d847daf2da35f9d5056'),
    'fixpoint seed4.grs seed4-any.map': (0, '8d366a9cc8fbcde75198f32990c6210ff6830f123eba0afa1dbf742930266915'),
    'dynamics seed4.grs seed4-any.map': (1, '8321a9c86051ebb3d733ffb86ed2eea4184fc85728c71b555f99cdcc6a3f2ced'),
    'hulls seed5.grs --mode paper': (0, '665dbece92cbebb33f99fa911d254f6297c2f7f46c4c5438f9790b2d5cdf6436'),
    'hulls seed5.grs --mode closure': (0, '96d54ff4daa62f6c5d558168b616c571187eb97311a81cbb3a070a4f0878a67b'),
    'fixpoint seed5.grs seed5-hom.map': (0, '4d65ced6313547fbf93189b1560439ba1036209e7dab8510e12e0819edb3bd85'),
    'dynamics seed5.grs seed5-hom.map': (0, 'e650bdfe9b1744f45b61b8201cdba27290e412b0104a66221c7102fe806e3079'),
    'fixpoint seed5.grs seed5-any.map': (0, '8ac57c1578a69263139a3bcae012d9f633fb4f8c309c30f9b48ed003aa3b68e7'),
    'dynamics seed5.grs seed5-any.map': (1, '6479e3c09d9aeaf7d783ff5d0d0c519d7f8086e9dd400f53e83d517685ebd599'),
    'hulls seed0.grs --mode paper': (0, 'b5da679f3fa8796f14838feaba6798f037ac2efeadb1fdee38a54293b2649dad'),
    'hulls seed0.grs --mode closure': (0, '532435b51ec72c37412ddcebe70610c10569310223a1b6542e82cccbe5358f5e'),
    'fixpoint seed0.grs seed0-hom.map': (0, 'b5c5e72652626522f20d222ce5e1cb5f4a0e43a30a85c4737216952a15dec9b7'),
    'dynamics seed0.grs seed0-hom.map': (0, '7d72bad52c2b949d3ada9b9ce15456e8bbe102e430fb30bc14d686b91342ce33'),
    'fixpoint seed0.grs seed0-any.map': (0, 'e19b70da2247069533e1c5ec7674d66cb34d6f3adfbfb0af08b6afc2f11b9024'),
    'dynamics seed0.grs seed0-any.map': (1, '5357a97ed1ba3a127fd439d731135b57af29ecd83d44f71f4fbc96922f5349d0'),
}


def test_golden_reports(tmp_path, monkeypatch):
    # relative paths, since the reports name their files
    monkeypatch.chdir(tmp_path)
    assert report_digests() == GOLDEN
