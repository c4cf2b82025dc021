"""Golden digests of the CLI constructions: every artifact and manifest
that `rips`, `killfq`, `fibre` (all four kinds) and `bg-pipeline` write
for Higman's J, the group D, the icosahedral group and <x | x>.  Any
change to these bytes is a change to the published constructions and
must be deliberate."""

import hashlib

import pytest

from presforge.cli import run_command

INPUTS = {
    "J": "< a, b, c, d | a*b*a^-1=b^2, b*c*b^-1=c^2, c*d*c^-1=d^2, d*a*d^-1=a^2 >\n",
    "D": "< alpha, beta, gamma | alpha*beta*alpha^-1=beta^2, beta*gamma*beta^-1=gamma^2 >\n",
    "ico": "< a, b | a^2, b^3, (a*b)^5 >\n",
    "triv": "< x | x >\n",
}

COMMANDS = (
    ["rips"],
    ["killfq"],
    ["fibre", "--kind", "S"],
    ["fibre", "--kind", "U"],
    ["fibre", "--kind", "theta"],
    ["fibre", "--kind", "theta-tilde"],
    ["bg-pipeline"],
)

GOLDEN = {
    "D.S.ambient.pres":
        "39e065fa99136f6e30150eeed1d1e008eedee5f6cdd2bac047f403798aa57aeb",
    "D.S.generators.json":
        "9b29e08b6abc6f2e5e5f2c6e5e005987ea95ca7c5e98b9d4587d26820c927ee0",
    "D.S.manifest.json":
        "ba8ddd848c90900c8666a928b23d44f269af88d645b2466f94d021b82e96a047",
    "D.U.ambient.pres":
        "e24ab5d6c51899aec8261459cff62e5a3e2419c0260ad6e1531723d29e96ade3",
    "D.U.generators.json":
        "e7a9236fdb6f51017b01fc7fb9c1c5ada64844394f4ff29d0697c564efbdb0f8",
    "D.U.manifest.json":
        "7e7439703cf11cf2e32e107c656cfa925023c3a69d1e35c7c26167905efcfb4b",
    "D.bg-pipeline.manifest.json":
        "1eb21e8876df0be093cf39701f4bced014335daba03d732bc042556e1635aac2",
    "D.gamma.pres":
        "c9cf3451a098d5616cdc34d035c50a5402daba2af6227830105baeeb0ee7384f",
    "D.killfq.manifest.json":
        "a339ca6ac9992d83ac51ce435cc20a5a455b22deba7515a4c48ae57dc6bce0af",
    "D.killfq.pres":
        "db7db956147bdb61cf11a5ec9880ee66270ba66245f2952eb06f3f2c4ce4df69",
    "D.killfq.simplified.pres":
        "cba2a0cf1412698e218c6daf5fe8984f11d5242c64ca1f0b98d5a9aae6989819",
    "D.product.pres":
        "e24ab5d6c51899aec8261459cff62e5a3e2419c0260ad6e1531723d29e96ade3",
    "D.rips.manifest.json":
        "8b50108d8862220f5a1d591df05e810fde0443c33d0f26b733a67f60e6bbab5d",
    "D.theta-tilde.ambient.pres":
        "eaff1c762d8485c1cf188b97f4afdbffb35d5b51359b21370c2c5b43d41b1a80",
    "D.theta-tilde.generators.json":
        "e1e9c425b0d1ad35b92d15544a0f99840e16b3ac8732b7355773f337209b248e",
    "D.theta-tilde.manifest.json":
        "70dc0778bf52ea46e94c57f35d8f71c625d8d662a1574aceb398d90db63b2e21",
    "D.theta.ambient.pres":
        "1ff1570cbbf0a32ee49f025d74cc1a18c7a3900b1f68ee79f8115e57e4c324c0",
    "D.theta.generators.json":
        "d2f15a633a07012f84d6b27d4aa691545840fe41418f4337e7f6c48c184fb230",
    "D.theta.manifest.json":
        "716f788f5782ec82658800dc19e743b61e73f83560983cc751eafcc460770370",
    "J.S.ambient.pres":
        "dfff00f797231cd53c9e45695a3e979cea34b310ec64b812f131cfd9e340b30b",
    "J.S.generators.json":
        "bd6fcdc9a94c451574733c35a077df7e635576f8151c228ca93b2eaf0533a188",
    "J.S.manifest.json":
        "181f90712b6fa89db1b966ac6c0188b53509aa8a16167d8a514045fb78b81b88",
    "J.U.ambient.pres":
        "f9304aaad36340980f3aef915cd6f12472c6821b42f08f8f48736ca41c3cb732",
    "J.U.generators.json":
        "18cb4024d942166121aeb9cf376c687eefb8f0786ff33432975a226efefdefad",
    "J.U.manifest.json":
        "d21fcbed650c3fa343c5d8aa26171e7d82b27518038daec278e510e113db2814",
    "J.bg-pipeline.manifest.json":
        "83c1408a918f069c67c040d13d2274b3ef571040871de208737e411c39ec6dbb",
    "J.gamma.pres":
        "c7addd14527cb5993f4222a6f593190ef50c1577fcab28f66288768e687bb237",
    "J.killfq.manifest.json":
        "3e7dfdd86ddf17d23d95245d0046a1ce994851c74ece92bc8d94aea52931c581",
    "J.killfq.pres":
        "4d518d7eb5214db27be008d67f0b5c0cb1bbce86fffd6098fe4f468e6c2db666",
    "J.killfq.simplified.pres":
        "dd967c4033fa82af98c01ca5bd16550d329d521d80327c644eb8d49a86415c0d",
    "J.product.pres":
        "f9304aaad36340980f3aef915cd6f12472c6821b42f08f8f48736ca41c3cb732",
    "J.rips.manifest.json":
        "882f57368388d0595aab15cdd668414cf813e1df499a6c2157e546d0898c9ec9",
    "J.theta-tilde.ambient.pres":
        "34b3cf6ccc6c802f64316703acf469828dc278cd64087dc3ebb74ea89f07ffde",
    "J.theta-tilde.generators.json":
        "1eadad90facb0639cd2027af05af95b9276719f80f29fd02035b1d053262ee62",
    "J.theta-tilde.manifest.json":
        "204ecaa2e6ccc33701385fa339996e5b62dc8c1401291545633632cdd98e504d",
    "J.theta.ambient.pres":
        "8f2b56257c1c57ad4efe735c098e2acbaa7a028f2d91373ddb0eeab7a57a6151",
    "J.theta.generators.json":
        "00e54edbe7c1180d042661e0a580d3635ffa7edc5901990da88ad93ae95b16b1",
    "J.theta.manifest.json":
        "508f9326505dde5f4a67e99812ec8f16e29752304e8fbea6b513c49e29b18d85",
    "ico.S.ambient.pres":
        "8e0e7ae513ea1d8ae4e65f95ba4ec44e011d62de553d9ad56b188a07296b6ea5",
    "ico.S.generators.json":
        "f6b5e0bffb25743d782fccbea47de447307a352bf2011c53327d1cc8e2e15dd9",
    "ico.S.manifest.json":
        "6341d8c9750bdb3fd6b303159350e5b52b141a9746335cb0f131950515d3e06b",
    "ico.U.ambient.pres":
        "2194f2aede1ec6026f530e8526e68190ef6b2eb11b931cd005c276e2f8587ef4",
    "ico.U.generators.json":
        "7f818b3d322be13e38ed69beeac76d37384c66773fa71327d669c76e3b607d5b",
    "ico.U.manifest.json":
        "f8d4bac14df1019c23cba9df5504bda39692e0da12d2c7df5ca668adad542424",
    "ico.bg-pipeline.manifest.json":
        "1e6a14feee59a4877c5e79c45d35f3a4307060f5279c2b48946ffdafc667852c",
    "ico.gamma.pres":
        "72ba43bde92ed2c75c9a848eeec368670ae8f7f01d10d214b61d8cbe93496132",
    "ico.killfq.manifest.json":
        "73b8771dc6eca2bcf4ce11b7ee3a19b477ac967890ce07fada0743128a8cf7f8",
    "ico.killfq.pres":
        "b368572e59477a6914c0ad008aa385f82f4cd871806af4c81ed52491ef8cb1a2",
    "ico.killfq.simplified.pres":
        "bb4e4f389e0ca7c00519751f7ef575d8a87f71aa6afa83478c5095a856ddc69e",
    "ico.product.pres":
        "2194f2aede1ec6026f530e8526e68190ef6b2eb11b931cd005c276e2f8587ef4",
    "ico.rips.manifest.json":
        "bdd739813770764c37507ab82331ec15392e00c90d4ffb52710dc338fdbd7acc",
    "ico.theta-tilde.ambient.pres":
        "ae11da7e392b82cfc306715a0afe493b3a557a1cae32a5ecbefe2d8c6e8cae63",
    "ico.theta-tilde.generators.json":
        "1daf3c36908ff812cfbfea4bf3ddb5b74b0de03dd2ccbbbad344d2b566860bcf",
    "ico.theta-tilde.manifest.json":
        "a1c8b2549e286d038d70f66caef733e3dc33318e4d8f787722cd05707c702ce5",
    "ico.theta.ambient.pres":
        "b5ef763dba7919185150fd358defbcc2565dc2122e899c3d46eb2d9974f6ae82",
    "ico.theta.generators.json":
        "623d844a91f15475f099f61a272184f008e88597c9675bb5881d4fde75614c52",
    "ico.theta.manifest.json":
        "81c95d0b861fbc0fe90bcb4d90c2c2ecd74f3d0c5f90f6fdbdc49acda0a7c641",
    "triv.S.ambient.pres":
        "87f9d4e3d73c025effaa3625df056af327f6ec7bb559988902b99054e61ba5fa",
    "triv.S.generators.json":
        "24423a64a7ee2f388eaf9fb6297ca804b966090154481bde69005466e35a4501",
    "triv.S.manifest.json":
        "064d91a2980d82a95e53509f26f6464d2bbd8405111fa0fc6a5e049113141fb4",
    "triv.U.ambient.pres":
        "eed130fc1ae9755ce1373bf5f423ae9ee6e891067c6fa24bd903dc6b9cb8efda",
    "triv.U.generators.json":
        "0d13005af9bec1cb43b74b4aa70d5658f021e803157a067cfb8f6f054dd515bd",
    "triv.U.manifest.json":
        "9d23a2564aa98145a4d28a87df56339ea537d53e75222ab3a665e66f9e8ffb56",
    "triv.bg-pipeline.manifest.json":
        "9875e1f5c6d1a8a90d7069427ea968272de2999f0e2984600eac0f145f89e617",
    "triv.gamma.pres":
        "3ca4f3b7d4ec25c64daf215746e7dd100c7320ac2160455cf888cb7396336396",
    "triv.killfq.manifest.json":
        "cb5ad9030edfc329008114d704501dff78e87283029225307d8f86a502f48701",
    "triv.killfq.pres":
        "7690700e4b361f594672209d2cc353b7ee0376e882643f78b9986ae880bedfb6",
    "triv.killfq.simplified.pres":
        "70e1b7510e520a720c4b5d7d2de0c670b73f310551e469405ac53159d5a30617",
    "triv.product.pres":
        "eed130fc1ae9755ce1373bf5f423ae9ee6e891067c6fa24bd903dc6b9cb8efda",
    "triv.rips.manifest.json":
        "eb591607c8f680c637a82f0df8a3530c51f149570a2efc494f12b08ded5bf4a4",
    "triv.theta-tilde.ambient.pres":
        "864f28def8a72a627bba70308238a63f21695fe10b5d4576df19796912b2d724",
    "triv.theta-tilde.generators.json":
        "0f4f2a414f43c097b0198da73fc1beadc5ca645ab51944153d73a2bacbefd539",
    "triv.theta-tilde.manifest.json":
        "a3f79be862041a1626f68afbdacd821a9ddcdcee10fffe3a3bf371d24f2d64c6",
    "triv.theta.ambient.pres":
        "04fb31ab9b525b3b4afc25f2e02fdfc4315aa94a2498b94ccb7755c97e5df951",
    "triv.theta.generators.json":
        "6cdbd09511f64e60c21246a4da69caead5feb17bca35f007514cedafc3bdcc27",
    "triv.theta.manifest.json":
        "72e1f195d8d0dbdbe1971c7e54aa37e7fb58ffc18fdc6d0362c6cb8cb42c8ed9",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cli_artifacts_match_golden_digests(name, tmp_path):
    src = tmp_path / f"{name}.pres"
    src.write_text(INPUTS[name])
    out = tmp_path / "out"
    for cmd in COMMANDS:
        assert run_command([*cmd, str(src), "--outdir", str(out)]) == 0, cmd
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    want = {k: v for k, v in GOLDEN.items() if k.startswith(f"{name}.")}
    assert got == want
