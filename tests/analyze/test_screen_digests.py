"""Golden digests of the S- and B-screens on every Table-2 cell.

A cell is one Table-1 kernel on one of the paper's eight pruned 4x4
MRRGs (19 x 8 = 152 cells).  :func:`screen_digest` hashes the cell,
every S-rule finding of :func:`screen_instance` and every B-rule finding
of :func:`prove_bounds` with its certificate, so no verdict, rule,
message or certificate can drift unnoticed, just as
``tests/mapper/test_formulation_digests.py`` pins the formulation.

The table was recorded before the MRRG query index existed, when each
screen still rescanned the graph.  Changing a digest is a deliberate
edit of this table, and CHANGES.md says why.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.analyze.bounds import prove_bounds
from repro.analyze.model_audit import screen_instance
from repro.arch.testsuite import PAPER_ARCHITECTURES
from repro.explore import build_arch_mrrg
from repro.kernels.registry import BENCHMARK_NAMES, kernel

_PAPER = {arch.key: arch for arch in PAPER_ARCHITECTURES}

#: (kernel, paper column) for every Table-2 cell, column-major.
CELLS = tuple(
    (name, arch.key) for arch in PAPER_ARCHITECTURES for name in BENCHMARK_NAMES
)


@functools.cache
def _mrrg(fabric: str):
    return build_arch_mrrg(_PAPER[fabric])


def screen_digest(kernel_name: str, fabric: str) -> str:
    """SHA-256 of the cell and every S and B finding, certificates included."""
    dfg = kernel(kernel_name)
    mrrg = _mrrg(fabric)
    document = {
        "cell": [kernel_name, fabric],
        "s": [dataclasses.asdict(f) for f in screen_instance(dfg, mrrg)],
        "b": [f.as_dict() for f in prove_bounds(dfg, mrrg)],
    }
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


#: (kernel, paper column) -> screen_digest.
DIGESTS = {
    ("accum", "hetero_orth_ii1"):
        "bfd9a63c64e36702a92fe24d2de70a01d40bf44e504b710e66c1beeff5d76c0c",
    ("mac", "hetero_orth_ii1"):
        "327c30ba65948f33d2f32efff5dd5e758999b15287c3764572713da38ac34ecf",
    ("add_10", "hetero_orth_ii1"):
        "b3972ffbe320fd091f437c6b508b793d158086b3dbee1bb991a83b23f676778d",
    ("add_14", "hetero_orth_ii1"):
        "ef719127fe780b5377878ecb83820c7b068d30f592c0d1db98aa5bcf221febf9",
    ("add_16", "hetero_orth_ii1"):
        "34817e63cde665884b627a3ee31db0f13894f319cf5ca9ef81dc3e8e92ea4f4e",
    ("mult_10", "hetero_orth_ii1"):
        "d039479d88cfba9bcb7edf735184cc3932ccab1e90ec702bdaa1dc2ceb104259",
    ("mult_14", "hetero_orth_ii1"):
        "1628eafe54f9a07cf0590b27a345cd863d87a9155ec2d0489dae286f8e9c245b",
    ("mult_16", "hetero_orth_ii1"):
        "7432c28c7d25dbf60383c55eede4ab997a7fb5364b98018fcc0573b758293fa2",
    ("2x2-f", "hetero_orth_ii1"):
        "528e59bd23e06c761111b1b9860a3b2a0a6c2ce98a021f5f2ea590a60e99b257",
    ("2x2-p", "hetero_orth_ii1"):
        "cf6ca644a6c95734f5fc766717d0f648338798e14ed48c8910d3d4cf3041e60b",
    ("cos_4", "hetero_orth_ii1"):
        "0d3a94ea584b567b74cdef9c41c424aed84d630c3bb5eb9cfa566885a5d48052",
    ("cosh_4", "hetero_orth_ii1"):
        "9a5ceeef0539a57571335197c6a20cbfa3fa208b09204463afe57b5e94aee03f",
    ("exp_4", "hetero_orth_ii1"):
        "661ebadd2120bc7534bc7368ff3958a2b9b20cd2778ecebc413b2cb476352364",
    ("exp_5", "hetero_orth_ii1"):
        "44d551094d4fa755ceb733b2124dc4bdfeadeb537e522ff7e33ceebce38da1bd",
    ("exp_6", "hetero_orth_ii1"):
        "754469722d6608e055f3e82ffb8ff62a3d2da583e21058aa9de2f8bf39f3bd8f",
    ("sinh_4", "hetero_orth_ii1"):
        "c19ec2dce7739e71c956138c2182195c7dc92c6adb6670d2c82703c3a813edcf",
    ("tay_4", "hetero_orth_ii1"):
        "bad3355bf1ca4d3680b4b976e7ae802f8a226fad2165bc3db28b6c939de44546",
    ("extreme", "hetero_orth_ii1"):
        "239b4468d71e91a0d659f6beeadc2a636081a5513d4693bca5c3afd879e074df",
    ("weighted_sum", "hetero_orth_ii1"):
        "2c2eb8c5c5aee60c3085e71a0e3ab4640912a2a5794a0396abccd7db4cfef18a",
    ("accum", "hetero_diag_ii1"):
        "8449943b4f45bfbcb8aeed063a02a1d3ce569f9ce45771e8e4c46b5027e43554",
    ("mac", "hetero_diag_ii1"):
        "402079f9443ebd6e28d4c47ab8d96c370929330f2cfc8f8ab9075c615584b99f",
    ("add_10", "hetero_diag_ii1"):
        "9aba3683d8ee85e7c813718102d7a620365065a5f8a96cec02e029e1da8b21fb",
    ("add_14", "hetero_diag_ii1"):
        "75a62cbdf88d47a5f6e82a23f188a7a2c3276c1795bd97eac3cb3b8cb98c5514",
    ("add_16", "hetero_diag_ii1"):
        "17342cf752054ad31b583c41dc33e402b9454b4aee9389f5674218f1bfda02f6",
    ("mult_10", "hetero_diag_ii1"):
        "8b9f055987d81f69287fdff24ad3db8385aaba710b26dd493eb3d775bc9ea719",
    ("mult_14", "hetero_diag_ii1"):
        "a8be508f1383576c28f944c2870741f7dd09a8df81fed9fe1c250076e4735e2e",
    ("mult_16", "hetero_diag_ii1"):
        "c521adb89e4d0f16075591a8514ef8536cf4e3eebecc5c7fcf8773b14a14d329",
    ("2x2-f", "hetero_diag_ii1"):
        "245d51b5887d11ffadc5beff9a5eb849678ec60c6dea306caa9f0aadbf7701c5",
    ("2x2-p", "hetero_diag_ii1"):
        "23b50d8d6c655b5191277ef3a399e3beea1cbcf8502675153575258d3ae1ac15",
    ("cos_4", "hetero_diag_ii1"):
        "57527f04ff6e73b56aeaabad2dbb546eb71d02e74966b202999e27e252ae4f4a",
    ("cosh_4", "hetero_diag_ii1"):
        "6cdb0ec3c90cae4d8ede776d2219358ad21b27e044ab42f9471385217c92ab5f",
    ("exp_4", "hetero_diag_ii1"):
        "fb30d76ae15874bcbbce0328a1050a8da460a3390657fca0d920be9830819620",
    ("exp_5", "hetero_diag_ii1"):
        "b1ade100edb93947a07cfa49c91358acdf88ab915d09ba78637ad79937b19834",
    ("exp_6", "hetero_diag_ii1"):
        "7f7b541e4d33e8432a9b1156ac9ba3eeb59a8886fbb843aa5b976f38fff87814",
    ("sinh_4", "hetero_diag_ii1"):
        "b7f47e113f54af0300ce0c237643882dc5f055599048b71e2ca22df263896dbb",
    ("tay_4", "hetero_diag_ii1"):
        "8f01e23becdac0bec1cdf2ab487e0fbfad5fa473006df4a99bbf85b8069539a9",
    ("extreme", "hetero_diag_ii1"):
        "dc6379ece506fdd9774889af891c3a79be7ee4dc4c0d815abba96041bd0e4e66",
    ("weighted_sum", "hetero_diag_ii1"):
        "bba6e21ee358ab44e81e5cc18cbb3bd4ae5a28c0569d48bce4a96e6ccdf45080",
    ("accum", "homoge_orth_ii1"):
        "2bffd2af30a6212c7608516db255fd57e050d0d5da7afd2cfb0774d39d5de2be",
    ("mac", "homoge_orth_ii1"):
        "c9a17806eb6158ca360d1c7107582e0a3a9a905f3ea50ca7646f9e21b1c147b3",
    ("add_10", "homoge_orth_ii1"):
        "4c9023cc603c1067531d2ecc0cb6afbf0efdce5b830f0c10fbe8b0e1b4f5a187",
    ("add_14", "homoge_orth_ii1"):
        "ebc9764bd3dcdb9860ad42fc64e06239ee7374a05f8be36171ffaa92c4a1d242",
    ("add_16", "homoge_orth_ii1"):
        "d614148a60f93675556b46236fbaa995da73b06d97cb54a5680c5386eb48c03f",
    ("mult_10", "homoge_orth_ii1"):
        "f12fc5d1eac2fcdc88c60efe38bb5206e43d46b46ff4f349587cefd156493289",
    ("mult_14", "homoge_orth_ii1"):
        "2aaff512bfff8a83c15f372a18c3ed63d392094fbce803c24f933d6d5a58c33d",
    ("mult_16", "homoge_orth_ii1"):
        "3171b4f1d61c4b2eb9717c0242c3b7b9f5e48fc03708c83904a64ba195fc243a",
    ("2x2-f", "homoge_orth_ii1"):
        "1d172bbb6be68bc8c4ed013088a5d2c22901cbcbcda5b7a4a27f5a37d83a744c",
    ("2x2-p", "homoge_orth_ii1"):
        "d451e82d2418ed178c54d49adf88c45f76bd4cc20a03f3c4ebe94c1f9aeb858a",
    ("cos_4", "homoge_orth_ii1"):
        "20efd769c49e556a6ec887ae0230fc914bde93c387b1de0f1672cbb0cb9afcc4",
    ("cosh_4", "homoge_orth_ii1"):
        "bc2b8be20e5f50a8bece18ffaa6a4e7addf79d521a23e3acb67d8d2136eacedf",
    ("exp_4", "homoge_orth_ii1"):
        "882cf8667384e89ccc2e27142fb804a36cfe668fef2bce75216d12a247df147c",
    ("exp_5", "homoge_orth_ii1"):
        "16dc3d6f995d5a0c74b981bbc47b21730e0099d97b0b67783185bff25b36a91d",
    ("exp_6", "homoge_orth_ii1"):
        "f121369a94b52c7e642672d4f76e2e7de15bcad7501b107697bec54cbb69fd2e",
    ("sinh_4", "homoge_orth_ii1"):
        "6ece0a3c0da8029aa719d4b477f14d96be01cdf5abfe51eb6b76b9cc85f80f62",
    ("tay_4", "homoge_orth_ii1"):
        "b8a339d386f8c8c8cf33424a5c4a4b84c2991e27b0e06c068af21a68df8e0f18",
    ("extreme", "homoge_orth_ii1"):
        "16ab080ee18fd7503aa14482c9fa54b6d3084670480fa01ea7d607c2748b1762",
    ("weighted_sum", "homoge_orth_ii1"):
        "396e61b1bbabb8b99355ff1f2625c97611e6c6f8bd2463825512df2a0f881c7a",
    ("accum", "homoge_diag_ii1"):
        "736f8570f15b4dca6725f9df5f875b70562a72f80a0259d3e77d108da9f8cfdf",
    ("mac", "homoge_diag_ii1"):
        "e06f1a9cd301226ffbb54486226e8509e527d256910dda715b727b9fffdfc3ae",
    ("add_10", "homoge_diag_ii1"):
        "952694151f8bd787070c7e87ca938c74026ce7ad1cc2de6c5c0abe2587edee3d",
    ("add_14", "homoge_diag_ii1"):
        "1ff8d80146f05edabe1804bbffd63ae35bce69518da1807c107b1246f3c452af",
    ("add_16", "homoge_diag_ii1"):
        "fe0cbec384e0cc78e736af6c02af88190fbe8d28100aaced792480d8816dccc2",
    ("mult_10", "homoge_diag_ii1"):
        "ef1e6b333fc186b9ef7fd50b9ccd73b24f86e00b25d364a8d9787107faa6566c",
    ("mult_14", "homoge_diag_ii1"):
        "6d27a762092e4d8daf274ce5639c3e7ea2012c47e712a76f5459f98db6d0c099",
    ("mult_16", "homoge_diag_ii1"):
        "9fe5f0805a1f1359e896c2df8ff1aa44ccf019c624078cf3f26be036a5dc6e91",
    ("2x2-f", "homoge_diag_ii1"):
        "f343fbd5c4551de8e43567e542cd237ae2c1a53d6a807e98bc978ecb1acd65fc",
    ("2x2-p", "homoge_diag_ii1"):
        "ec0ed93417460f552eab9528cfb8d980047406e7b0d8f9f38e888343aaa85e1f",
    ("cos_4", "homoge_diag_ii1"):
        "3e49a57ba859b8266f26fe27ae3590cd0487c8bbc3c27514caec7fd93bd0ac2b",
    ("cosh_4", "homoge_diag_ii1"):
        "13840b42a86be3bbeb08bf9c3b60d11d3951081e9eb8850d5a2de7780ddf67d7",
    ("exp_4", "homoge_diag_ii1"):
        "cdebc301756e80c423f1a3cb5ae7f5dba45a82aaa8d9ea768168b8f2d8f47754",
    ("exp_5", "homoge_diag_ii1"):
        "18bb79d375f2f0d8a42f35aa0ebd1d83dc5dd855047f5264f37e8ec1360d81f6",
    ("exp_6", "homoge_diag_ii1"):
        "6d7fb091e2e910b8a38a282fefd31af66b9026cf4b5817ce9ab96f20a02777d7",
    ("sinh_4", "homoge_diag_ii1"):
        "dcc7bbac1c5012e5ceecf0b921297194ba3cb72968f327c99b5b0d54591f9a51",
    ("tay_4", "homoge_diag_ii1"):
        "3bceecee3b1e6dc3b7c3a2c7b09cdcecf5f80226e76263aee80a0c905af086ca",
    ("extreme", "homoge_diag_ii1"):
        "8ee211619c0d0a142846f798df4f6e9f37cf1806a6e566788c7d107bc64de987",
    ("weighted_sum", "homoge_diag_ii1"):
        "dd230a8173f0f4025819b53a56f9bb1bb6723ecd3c513cb57b08c408c490f76e",
    ("accum", "hetero_orth_ii2"):
        "b55410d84a0f86177cc7d153563ddf5eb5ae36efa06f37c16cb787a00705fd06",
    ("mac", "hetero_orth_ii2"):
        "095b81421ea853bf2ccbee71ae1f797ffb4f8ff0e1ba338d873d5cad4964f2b3",
    ("add_10", "hetero_orth_ii2"):
        "9ccade5bc77cb658ea9d9df047930af1f3fe3f125525120cd4d5def6014ba993",
    ("add_14", "hetero_orth_ii2"):
        "0a6443f0d9688271c467f04a6a727dc03793267c29a9354bf156f5ebd1bc475d",
    ("add_16", "hetero_orth_ii2"):
        "79c67a0bf7cafcf935aafcd87dc2932f36cb769a6a780e36112f1efb8bb0ac5e",
    ("mult_10", "hetero_orth_ii2"):
        "cb6ab2bf689bd5060c879932a0b58813f225d2a276753b95007352077c4a7f69",
    ("mult_14", "hetero_orth_ii2"):
        "e2a007f2d3c40d0c018516ef6f7c7c1f70324c06c07bf02fcd7588890da8cd2d",
    ("mult_16", "hetero_orth_ii2"):
        "d1f95e79202e56db3ef08d8e328330b99f3b2daf4014b42d6840e7442ba93369",
    ("2x2-f", "hetero_orth_ii2"):
        "9cd3750ed7db8b1a83840f0022f25c621b5916362d5b48e2f1d936ca2a435d85",
    ("2x2-p", "hetero_orth_ii2"):
        "f8d24c8a0ec95574843b396da7ef649144a5032211fbffe1acc9004f0f72b57e",
    ("cos_4", "hetero_orth_ii2"):
        "918af2a1ab03665390418f52cc9a7c243d81ecc5365935b2f627a34c17d40e08",
    ("cosh_4", "hetero_orth_ii2"):
        "569101e2729fdd2adfe91f36caba80eacf87c880e19f964fc38475d8a2204748",
    ("exp_4", "hetero_orth_ii2"):
        "8485a663cbbfb69aa1b32bbbc8e83682f8919faa2e93df504710a2eca45768fb",
    ("exp_5", "hetero_orth_ii2"):
        "b71144d55dbc2159963a2284226d9e529cfe80ac03f021fb0ed539c405a2366a",
    ("exp_6", "hetero_orth_ii2"):
        "1ff99f7c6881123d13fb229d828da61ca9369fa1b815a7efb3bba7d0f0b1d6ca",
    ("sinh_4", "hetero_orth_ii2"):
        "5a4ae09615ec971cb01669cc52ecaf83fed1e89bac3ef6a7f682fd3a098a1403",
    ("tay_4", "hetero_orth_ii2"):
        "9c6aa93b1bc03fa6f862f22f1ca504c512f1e0c4dc044f532d9f62848474dcd7",
    ("extreme", "hetero_orth_ii2"):
        "e7c6d9cbca4813163d4238f4fb499353b837eb17134634b0e72506596ba06c73",
    ("weighted_sum", "hetero_orth_ii2"):
        "ff963587e8f844c4d16bc0e87a734b1be512ea2e0ccb0fa3ce454bfd4ab1d402",
    ("accum", "hetero_diag_ii2"):
        "b126fa2d5e88834f3375abaea41ae4884e4bed1b7f43056212944ed0cd50d475",
    ("mac", "hetero_diag_ii2"):
        "1010ea70d73b36293230bd0ebdc66da0488987a4d9e6554d179b50484c3a6cef",
    ("add_10", "hetero_diag_ii2"):
        "1945595d38145b92225a8813714d3d4ebe00d98f06662e344619dfd69c7b5e40",
    ("add_14", "hetero_diag_ii2"):
        "1eda7d06fc0fffa106e72dba14346cb6d0b7d8c43962f9c6c33df3bcb3116f82",
    ("add_16", "hetero_diag_ii2"):
        "53bb212edeb3fe7449c2a571a25df614a1dd7d1f266a7ecf98c1d268c02322cb",
    ("mult_10", "hetero_diag_ii2"):
        "f434dc4663edf36c92161a6e62a3a648d1f9d1abaecbf1b6cdb73f3e2f0833b0",
    ("mult_14", "hetero_diag_ii2"):
        "d7b92daf81eb733a183568564ca5cd4002649400de160bc6c0315d9f5aa46607",
    ("mult_16", "hetero_diag_ii2"):
        "0e7312728555c67e877115deed7d099304ca7bae4929f55da74304ffc7e81b23",
    ("2x2-f", "hetero_diag_ii2"):
        "08dae9b7f8b457bc71201239940a570953af8eeb3810c88f0d1015b2d8e2932e",
    ("2x2-p", "hetero_diag_ii2"):
        "913188abe9c41a8ca7d65f9c3516b89b03d03ffba8dfcdfa2d539e1dd5eb582b",
    ("cos_4", "hetero_diag_ii2"):
        "d1ed733c8af222892bc71061b30a67ee78011f1f9b90335a6293b57064005871",
    ("cosh_4", "hetero_diag_ii2"):
        "aacad94d77debdd541bcd6fd6d295dd73f590b208a1ca6e52e39f878f5050e67",
    ("exp_4", "hetero_diag_ii2"):
        "ca1c9ff44b815685aba444c0d16ed1c80006be02f98afebb497f8382bb2d32fe",
    ("exp_5", "hetero_diag_ii2"):
        "642b07a1240d2c9f7a3c3443d2d5124873140ea0e0ea361ade0f8b3b658668c8",
    ("exp_6", "hetero_diag_ii2"):
        "42b5a18bd30e124590bc03349d3603439a59cb91b0e45302631d13a4884f4f7f",
    ("sinh_4", "hetero_diag_ii2"):
        "8190e455f6c4b4a8f1364a5e1d73bcffd9b16daec3ca7a75f6a794a3891fbca8",
    ("tay_4", "hetero_diag_ii2"):
        "9524fe7923f9b88e290f2bcb97ae8946cadf15d30746c7971fa2148eb18fc80b",
    ("extreme", "hetero_diag_ii2"):
        "ab816ae56bcf1aeb2ad88246ee129cda75fdb18648a4ffd92fd80bad9a53a091",
    ("weighted_sum", "hetero_diag_ii2"):
        "ddfb57df65f6f9f8879651e9d20f28cf32b52b47511a69a20dc7374b62d52165",
    ("accum", "homoge_orth_ii2"):
        "06e83915d9d1b73be314ab0b5ad63ef1e7239099e06ff13e6d131468b2a2dcd1",
    ("mac", "homoge_orth_ii2"):
        "6193660abcc57e890e0395fa1d6b6c6f7fb92032aaec49917d5768c77d710c1c",
    ("add_10", "homoge_orth_ii2"):
        "e080bb4b8cbcdeb07d269689dc937deb75ef92637f6cb8bfc71fb1e03d8b2389",
    ("add_14", "homoge_orth_ii2"):
        "8c24b6f23eded1f868a77bf04bfa1a0feeb8da64dd561a2c4280c8901b9d4c1c",
    ("add_16", "homoge_orth_ii2"):
        "9a4eff3cbfcaeb12030c7b1551faec1216dde144009232e3eb83ef8c77bd1ff7",
    ("mult_10", "homoge_orth_ii2"):
        "481e958645fd7a9387ce7fc0a3a33aca16eb3c7c0d35a7371b6cbc026b6f0c8a",
    ("mult_14", "homoge_orth_ii2"):
        "99204b1cf07856bbd2b8826ad593ef5762a80989c0d1f0ca5547a2dff1046ae5",
    ("mult_16", "homoge_orth_ii2"):
        "7244f60fba8cdc709f4a09f453a03035cf5cb2a14be392944eabf80823a5db44",
    ("2x2-f", "homoge_orth_ii2"):
        "41ce64882fcae32544e04a03493ae562eb54065a9711b08d706c131ce75f2d76",
    ("2x2-p", "homoge_orth_ii2"):
        "4989a6fde74c4d730e3395f8851c51af4f92f1514e658fa631c9a183c27969e8",
    ("cos_4", "homoge_orth_ii2"):
        "64ca5b634d194fd765766312c4bf08ae6552810df3a4f8153aaabcc6a28636f8",
    ("cosh_4", "homoge_orth_ii2"):
        "a94ad6d7b9ef4ad2f3c2c4c30fd7cd69cfa4225326d67f7c1254d4cbaa33ed62",
    ("exp_4", "homoge_orth_ii2"):
        "0cba334bcae498420f1ce95635c22a0f2b22b458db61fbc3267590d7b842073e",
    ("exp_5", "homoge_orth_ii2"):
        "122c3fcdaf6005fa31d307705535b4017eee604dbfd69c01057bd8ef2e43f9be",
    ("exp_6", "homoge_orth_ii2"):
        "5616b4bd022fd6feadd2add7e59171f7c2a0deafbffd6ab5a9f407652fa5aaee",
    ("sinh_4", "homoge_orth_ii2"):
        "0217e78ca709d12a8823a8d99aa16bf34d3af9b01e437b7d706450e9c8afa24b",
    ("tay_4", "homoge_orth_ii2"):
        "009440b6c199a2ae204ddb77fecc02c4031aa95cef358edd761acd8f301b3662",
    ("extreme", "homoge_orth_ii2"):
        "d29d27c1f9a9f1762216f92724b7409c31f8a4c9d3b51f23d1c7b60865c95423",
    ("weighted_sum", "homoge_orth_ii2"):
        "529a2b82d13489a9f13c508d9a5a662e0fdbcdabfb8453d04c90e8bfa563df50",
    ("accum", "homoge_diag_ii2"):
        "ab8ff85032f62ecc6f4fecaf78369e9312b20f999f29fa716a3a6f293b70e30c",
    ("mac", "homoge_diag_ii2"):
        "91df05780d40559ddf4b0f4e14c7013156b6d67ee57a2ce733cc692d143f3816",
    ("add_10", "homoge_diag_ii2"):
        "b63be6a5a12b2f9fdf365d2c605329c972e4425559cd7c0a2128f8b286793595",
    ("add_14", "homoge_diag_ii2"):
        "c3ab417f16baf80e24c93f1c281e3146a366e7cb40e000674dfad783b010c83c",
    ("add_16", "homoge_diag_ii2"):
        "85cea7b7fc6a2a2014bda7e12a72cabac13fa64836c3a5758cb05b843db97f6e",
    ("mult_10", "homoge_diag_ii2"):
        "ebe3991903dc53f48fa440b330dd0d3b8b761bd98b11c0cbf320effe87550518",
    ("mult_14", "homoge_diag_ii2"):
        "71fcb2734c9c78e031641de46f13174ba0b4baf18f8d1d864e55f969c2096908",
    ("mult_16", "homoge_diag_ii2"):
        "3cbfe7338cd14ca6284403bb50d03ea614c2c1d9d522fef5d34d9bcb9b10e71b",
    ("2x2-f", "homoge_diag_ii2"):
        "ef75cceae9596be1a04a7369f4bd763356724e1d41e741d32b35d924b051bd1b",
    ("2x2-p", "homoge_diag_ii2"):
        "a030541a632321a1b19cbb3b69cda16a8656ef6e58b9e9b165035522d1615a08",
    ("cos_4", "homoge_diag_ii2"):
        "521df07249ce6388cbeabc9414d1840c06b3c2211eda188f2cc8e50f3e765fb3",
    ("cosh_4", "homoge_diag_ii2"):
        "f288a38e67027d6c0a181cc0bbd8dae39452717b98ea2fede9cea754a18f4f35",
    ("exp_4", "homoge_diag_ii2"):
        "0c162dce33b9bb0cc9e1d14066648f235b1cc8bdcc85af15d57e89607f9fc6cb",
    ("exp_5", "homoge_diag_ii2"):
        "b6bc5105bfe54faa957dde8051dc0e4b08ec73536fda6c94d9e3f68cbbc0a38b",
    ("exp_6", "homoge_diag_ii2"):
        "35b6568c9c9ecf1debe891f3c08af7c573a970ffd00a0b5ce34c02df455105cc",
    ("sinh_4", "homoge_diag_ii2"):
        "4324f381ab6855a91dfef14b385413a6b6a9525365fa60880c0ae1358844fe82",
    ("tay_4", "homoge_diag_ii2"):
        "67f5497809b77683b4dea45c60026d3e0d5c749e8eeb0c9fca4ceecd483fadd8",
    ("extreme", "homoge_diag_ii2"):
        "43548e185975c08c067c87b398893f3265a3e331e4ecf87684a60474121a9050",
    ("weighted_sum", "homoge_diag_ii2"):
        "0b44da7be13c7fb241a01f1e0710c33159968692cdf44f700538582ecf86bf59",
}


def test_every_table2_cell_is_pinned():
    assert len(CELLS) == 152
    assert sorted(DIGESTS) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_screen_digest(cell):
    assert screen_digest(*cell) == DIGESTS[cell], f"new digest for {cell}"
