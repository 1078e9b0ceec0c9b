"""Golden CLI bytes: the sha256 of stdout for a fixed set of commands.

The digests were taken before the ring layer dropped its element labels,
so they pin every one of these outputs to the bytes it had then.  A change
that alters any of them, even by one byte, fails here; one that means to
alter an output must say so by updating its digest here.
"""

import contextlib
import hashlib
import io

import pytest

from ringline import cli

GOLDEN = [
    (('ring', '--ring', 'gf(2)[x]/(x^3-x)', '--format', 'text'),
     0, "a644b189ced3ad84357d07c71307fd07548379dd7d7aeb7d2a1927b94ed4e147"),
    (('line', '--ring', 'gf(2)[x]/(x^3-x)', '--check', '--format', 'text'),
     0, "889b0805393c1125f5bd76fc85031b4d4a374752cdd25453b360cb11220fef68"),
    (('ring', '--ring', 'gf(2)[x]/(x^3-x)', '--format', 'json'),
     0, "f0d7262eaca12708153345822c3c54458608e077d86f2ae7a7e0b743b1599b6f"),
    (('line', '--ring', 'gf(2)[x]/(x^3-x)', '--check', '--format', 'json'),
     0, "86342c3ca6fe76bcbc0385853c44b55d2747eedd3f197f653b3d44a88b3f01b5"),
    (('line', '--ring', 'gf(2)[x]/(x^3-x)', '--format', 'dot', '--graph', 'neighbour'),
     0, "119dc3be838d837df5d7590100f632e06ad2b52a1280cafec9e4f84bf7fa3135"),
    (('ring', '--ring', 'gf(2)[x]/(x^2-x)', '--format', 'text'),
     0, "f2cde6ba7c1d39f0aa8959399f835ec331f49326af17472357d973fe51b8450a"),
    (('line', '--ring', 'gf(2)[x]/(x^2-x)', '--check', '--format', 'text'),
     0, "83b8cf7908861d24c95e11693f378219d6400115d33438bdff6e3c08e745dc27"),
    (('ring', '--ring', 'gf(2)[x]/(x^2-x)', '--format', 'json'),
     0, "c8c06b522d7a20b016b1de20a423332b8a52ae1d216c87827bcfd22e49732ee0"),
    (('line', '--ring', 'gf(2)[x]/(x^2-x)', '--check', '--format', 'json'),
     0, "9ea4c5a11deb349f1f75aff48b7f31aa3d506ff29fa4632ea4bc187d9c94edd9"),
    (('line', '--ring', 'gf(2)[x]/(x^2-x)', '--format', 'dot', '--graph', 'neighbour'),
     0, "0d6efcd98db3fe7257fb57c1de9ce6f4c3be81833708b94cd5bcf974f91550b2"),
    (('ring', '--ring', 'gf(2)xgf(2)', '--format', 'text'),
     0, "13c8b4dac4b03bbe6e514e732a55ba5f53e9cfeefb0422ff2488e2700d7c6d89"),
    (('line', '--ring', 'gf(2)xgf(2)', '--check', '--format', 'text'),
     0, "e0e278719dd701949a936718af00f37966a8a3812023b63312a43bdd9ce6949b"),
    (('ring', '--ring', 'gf(2)xgf(2)', '--format', 'json'),
     0, "eb30e50bf35d57b156bb1719c0768dc4b9b5099813a1246cb98c19c4942f8f0e"),
    (('line', '--ring', 'gf(2)xgf(2)', '--check', '--format', 'json'),
     0, "e251d4c222c6fabe35a0a7aef213c546afd424835f4327ad6d7d1c1412e9a8de"),
    (('line', '--ring', 'gf(2)xgf(2)', '--format', 'dot', '--graph', 'neighbour'),
     0, "f07460fc2c810cbe6f754c81c6c9b5b8be47b5d3992c874ca44a785e5220a0d6"),
    (('ring', '--ring', 'gf(4)[x]/(x^2)', '--format', 'text'),
     0, "483bf7bd651ccc40b9db464203ea67e658ef799b5bf5de7587cf6103cc9745fb"),
    (('line', '--ring', 'gf(4)[x]/(x^2)', '--check', '--format', 'text'),
     0, "96787c68e288f703ab83f29aa6623c825dab7b8f272f8929d0c1e1517e573ce4"),
    (('ring', '--ring', 'gf(4)[x]/(x^2)', '--format', 'json'),
     0, "c013da2656bd90136135036e65005de9f4e5e7c1d1034affe42a5d909606592e"),
    (('line', '--ring', 'gf(4)[x]/(x^2)', '--check', '--format', 'json'),
     0, "904ea14330b639ccfdda009dfa9cbda1008f0136673851aab7641c6220fd7037"),
    (('line', '--ring', 'gf(4)[x]/(x^2)', '--format', 'dot', '--graph', 'neighbour'),
     0, "62c62bbbb155e34ccc5550cf24df224b2d3aa9b7f483fb66d313653400228fc4"),
    (('ring', '--ring', 'gf(3)[x]/(x^2)', '--format', 'text'),
     0, "645cf81fc8f932cdc513d8febe7294bd358a262622b8a831e1a0d85b207899b4"),
    (('line', '--ring', 'gf(3)[x]/(x^2)', '--check', '--format', 'text'),
     0, "2d0693ba3d91b62c488b4624a8d451e93347ef1ba227ddcfe5aedb6c82b28249"),
    (('ring', '--ring', 'gf(3)[x]/(x^2)', '--format', 'json'),
     0, "1e59f1e25293dc388ede2a54fbde401b6d99e6b857824359c54cf6176a15b664"),
    (('line', '--ring', 'gf(3)[x]/(x^2)', '--check', '--format', 'json'),
     0, "9abcbd5c0adab965cd3b1867c3e793c8eaf95e61f8bc0aaa2689723a4676677f"),
    (('line', '--ring', 'gf(3)[x]/(x^2)', '--format', 'dot', '--graph', 'neighbour'),
     0, "a0757bdd7b0c9395c0dc5fd2f8588380212cf429bb1bb130181f4972398eab26"),
    (('ring', '--ring', 'gf(2)xgf(3)', '--format', 'text'),
     0, "c978c9ff822356c48d1e821fb3fb19e09eb0eaba4e7846a92d6dfefcfc4d5382"),
    (('line', '--ring', 'gf(2)xgf(3)', '--check', '--format', 'text'),
     0, "ed9e31c3f5ff91d762a5cbd8096212907c9519e278a14c7931f0e3318057768b"),
    (('ring', '--ring', 'gf(2)xgf(3)', '--format', 'json'),
     0, "a36b2ab28d08a095fc3f5654720edd29f4e53d65fc0c5bf24a79ab176318fc80"),
    (('line', '--ring', 'gf(2)xgf(3)', '--check', '--format', 'json'),
     0, "7c515214c501d91e195aad0dc028cd6c538ad869e4101f813c4dc2abf5f95f88"),
    (('line', '--ring', 'gf(2)xgf(3)', '--format', 'dot', '--graph', 'neighbour'),
     0, "e22d56bb429a8b38cb887db0fcadd9a94212453e4b17ea5e63b80396a5a7efec"),
    (('correspond', '--variant', 'square', '--check', '--format', 'json'),
     0, "a61e8003fb0ca6db7eddb70a05e490be0db1c4170b97785318135ccd93cb5d98"),
    (('correspond', '--variant', 'square', '--check', '--format', 'dot'),
     0, "0418c58e5deb3ccc5cdea800448dd1c3a8c58c0a98c8a24dddc8f3fd94d7965d"),
    (('correspond', '--variant', 'neighbourhood', '--check', '--format', 'json'),
     0, "48c6d851efd187c43b3b392ab899f294aad319a7f5f0fb12399d96109f0e7d3c"),
    (('correspond', '--variant', 'neighbourhood', '--check', '--format', 'dot'),
     0, "cd03f7231c1d3ee61d3cd62333f8fbde3634af7bd1579dcfe654e87333f98f63"),
    (('correspond', '--variant', 'jacobson', '--check', '--format', 'json'),
     0, "72e2356a2be8b28075e248bfa768d9024e8cc51c15539628d5e1040ae161f28d"),
    (('correspond', '--variant', 'jacobson', '--check', '--format', 'dot'),
     0, "0e55f18cc391d3678ad0713955d2ba752e3c387da18c0e63574a2e5079b67736"),
    (('map', '--variant', 'neighbourhood', '--check', '--format', 'json'),
     0, "c518360eaedd304cbd35e81050b82c379151f11777b51d676248d600280959ac"),
    (('map', '--variant', 'jacobson', '--check', '--format', 'json'),
     0, "8e5d6eb5bb5c5b4e8cb90f0f0c48ddd064976fdd63d6794e8d0d049943b9369f"),
    (('verify', '--builtin', 'mermin_square', '--check', '--format', 'json'),
     0, "13a0df4c011c1fcf09e775b3a57be40d7d3c3ce393777436ddcc67be9d22ccb0"),
    (('verify', '--builtin', 'mermin_pentagram', '--check', '--format', 'json'),
     0, "8e9fd0230183c12593437c9d82aa44fe7088d6b28a1084c2ad4e7ecda23cad51"),
    (('bks', '--builtin', 'mermin_square', '--check', '--format', 'json'),
     0, "8190d1563a621ab2ccd29159f98077c34268636f9b2211e1310fa531b5795d53"),
    (('bks', '--builtin', 'mermin_pentagram', '--check', '--format', 'json'),
     0, "0d6467db40fdee704baf327687458ae9c3bd0f9e347efd41eb4b1a586b3cb949"),
    # taken when row 3, the Bell basis, became a checked claim in place of
    # an informational note
    (('entangle', '--builtin', 'mermin_square', '--check', '--format', 'json'),
     0, "d403f38ff0ed51fe09a021139fbde1efbb20fe6d86bba3bcad9cbd4ba307337a"),
    (('entangle', '--builtin', 'mermin_pentagram', '--check', '--format', 'json'),
     0, "bf75d53a904ac4d1b9caee84ea216c30c27cfc7e329b5ce035d0c40bca3a8e49"),
    # taken when the built-in square's orbit, 72 arrangements in one,
    # became a checked claim
    (('search', '--kind', 'squares', '--check', '--full', '--format', 'json'),
     0, "efc8071434726f0f9d113a13c0d1bbdf276d0b7c76fde2846a040e40c0623293"),
    # taken before the pentagram search shared decisions and shapes among
    # its results
    (('search', '--kind', 'pentagrams', '--check', '--format', 'json'),
     0, "ab8126f5522e33bc86ed0c58ed271aef452c9ca1a85426eddae25201322dfd8c"),
    # --full pins the order and contents of all 12096; taken when each
    # result came to be listed in one K5 layout (observable k where its
    # contexts p and q meet), in the order the five-context search finds
    # them, where they had been renumbered in word order and sorted
    (('search', '--kind', 'pentagrams', '--full', '--format', 'json'),
     0, "15bc0cbdd88428994fb4aaab4c2b6d5be5d98efe7a475a0f61f588f58d8376ce"),
    # taken when --budget came to count the direct five-context search's
    # nodes: the 973 sets it finds within 5000 of them
    (('search', '--kind', 'pentagrams', '--budget', '5000', '--format', 'text'),
     0, "3874170b8f85c1cac2891ce5667fe17fdbb52bff94a095ff881e5585da7976e1"),
    (('search', '--kind', 'pentagrams', '--budget', '5000', '--format', 'json'),
     0, "f1bb8e4a656b5778547cb4a659e1df071c6cc020305f68a8de9f160d446ba244"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_cli_stdout_is_golden(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
