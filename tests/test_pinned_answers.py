"""Pinned answers: the solver and resynthesis give exactly these results.

Each case below hashes the answer of one fixed solve with SHA-256 and
compares the digest with a recorded one.  A change that alters any SOP,
cost, exploration count or rewritten netlist fails here, naming the
instance, so a refactor that claims to keep every answer can be checked
against this file without a second copy of the code.

- Table 2: each of the 18 bundled instances under ``bfs`` (at the
  default ``max_explored=10``) with each built-in cost, and under
  ``dfs`` at ``max_explored=200``.  Each digest is of the row
  ``(name, SOP, cost, relations_explored, splits)``.
- Resynthesis: the rewritten BLIF of each of the 22 bundled circuits at
  ``passes=2 window=8 max_explored=8``.
"""

import hashlib

import pytest

from repro import Session, SolveRequest
from repro.benchdata.brsuite import SUITE
from repro.benchdata.circuits import CIRCUITS
from repro.resynth import ResynthRequest, resynthesize

TABLE2_DIGESTS = {
    ("bfs", "size", 10): {
        "int1":
            "4ff1fa330b06f36f2d31b93abeb24e478efb8663ccb4f49f98bd781fa8e393f2",
        "int2":
            "cae6ed3160a46391dda60501e30dd3263fc6167c727899ea5ff935aa4d3803fb",
        "int3":
            "c0eb5b579ef3696b082babfc69276b84769729c7a1565fb454d3c134f6503755",
        "int4":
            "bea689306603d8ae30f6b023fc5dbbeec07e8200423fea9f7c775392fb8d6d44",
        "int5":
            "012c0e45377d39f7ad58f8d394e052c47b4b850e83a6c6d84d83b51916c4bc1d",
        "int6":
            "ce4773e7fbe5790959fa3fa053ae372efbb544faa394da2d0dfe648af6473f2d",
        "int7":
            "b34357ab847365cb53f4ff6c925c844ef5e2cb2af87063376a7f3e03ded77b5d",
        "int8":
            "9d996e2c3183d5805fd49782164d35441e804dd3d15e2da969fb9cb1402d2cc1",
        "int9":
            "d6c6a9727acabab03fb3af4b350bef28f80f48f00b7cfe788af820caa0491ee3",
        "int10":
            "e31d0f0ae2346b6ef3fe8e88a179ec0485647cb040dd3b5e829f90bc33ba781b",
        "she1":
            "1822d74a9db601c58ec9a71d445f6a928906bf6bebcae7f049a40679c220c816",
        "she2":
            "8603c760a78557153c70b39a26fdb05b987bd4f3efbee0325877341ead721329",
        "she3":
            "69d776ed434f52cab8769d3b8a766c5b9c70b12055a607b85e3cf16e988db313",
        "b9":
            "9aeecaed676ed5e8f0dd3256573033edca2eeb36d1b2b819af522a032c8f4d8a",
        "vtx":
            "c2e76fcf08c9fdf2c6244320ac41a5dd48b5f84cdb397635c8548ea90c6b280d",
        "gr":
            "fc71445bf81189ac35f6f77154dce39c77cf94aea39196b150f383e18141a811",
        "c17b":
            "13e5a00035978223d1ec1423426d5ae24361a62553fc6451ccc486bd1b23b449",
        "c17i":
            "1d41950a506b9afaeccf8b7e3ee2d120109fb838b8e418e555c1331d24ab349d",
    },
    ("bfs", "literals", 10): {
        "int1":
            "27e4ef183da581c366f2bf4e50a0aab8a4b60bc9cafa104a0bdee35a578c5bea",
        "int2":
            "119bab88f618b947ff0cbddd4db743fc2709b3b23a29b8dd6b8b15bd8cd5d0ac",
        "int3":
            "01ba1596ae486718d180ccf1b2ceb405fb006a3c15ae142a52d5558516f568dd",
        "int4":
            "30d912fe0f070984bcc5e9c5506e492534dc7bb2d5594534e42b0a09384f0885",
        "int5":
            "8994f0ec2bf856d658bc3263ace5293c568c1d4b303634ced7365c41d25db1c1",
        "int6":
            "faf58f0a48da59895dab3ef29d0f91f7d278aa2e31b714af83d12f4fff41e930",
        "int7":
            "d8c60cb6900209006b6401570bf959dfc9d6b9409ece5e1362d585c4e5a613ae",
        "int8":
            "695fcea12f75b00d6520d2ce0234852865f1acac4e34ed010f8cc91e9c0f769d",
        "int9":
            "77681a94bb369b094d63b376da89282d6010a10d6ca020603f8378bfc0fa903a",
        "int10":
            "fcefb306d690db8ad685bf632e3f57cca75524ec53b19222942dd3a0d99ca708",
        "she1":
            "a8d579c82ef735881b88efab968afc8e016284cbe3f2cae8d4ccdc1121160348",
        "she2":
            "8737916b077cf4d557021a32250fe1f53f30022fd5143f450c3583baf8ff7d25",
        "she3":
            "28d2a2d6d0e715f51c8db2996dc45af8345391c855dc95941846d6f0e4297b1b",
        "b9":
            "2f10181bd7fa625638dad581ca0b372c1cd9212a53b3a34b5faef90754dcacfd",
        "vtx":
            "872e99413e332046e729c044caf500a5b9b636e4614bf5d3a31e56ec00d454e7",
        "gr":
            "ead7b34cfd27334536b433730965837f98b53443758eefd3fc0a94cdaac5c1f4",
        "c17b":
            "e5113919d64a0aace901da295bd02fff5e5ff11723e47a0c75766cdfefc51a78",
        "c17i":
            "1c7dafb92477dd7c2d1173431ae58c1e1874304aa19c3bb26e9b256593688536",
    },
    ("bfs", "size2", 10): {
        "int1":
            "f4ccd7917ed72361a99fff12d26a0ce6101dd693fe6c3cba60a77be063cc5051",
        "int2":
            "0a61993d061a104bb6b318ab58654393f45d80b307eb743b6176c6d66a5d44c7",
        "int3":
            "fef7dfe32324a3c37e71ae3b15c35736f71bbdb97c28a1effc7ffe372902c087",
        "int4":
            "70bab54640b8aafecfc0f622eb40016137584e4b39a471da3ff8b0a01cf22471",
        "int5":
            "b1f9c0f867340e36bd5683ed2d27693c98144b90787f02f343ec0c6658986f62",
        "int6":
            "d188be5c8f286b039543125fe60a73f67931cb23d8ab035c2c99f67e0779b8c3",
        "int7":
            "05149e195d52ea62ceb0df674d6120efb45808d7f08946eaada0b9e8176d110d",
        "int8":
            "8be26f52ae968d083f2311ed55e0f5e6555961a2d754712f4185374dd41ce78f",
        "int9":
            "82789d0bcc341c4b7e8e7f40645374c7783a240c6e0fd36960a344dc825fb68e",
        "int10":
            "d0cbf3cfb569ed4c6c03bf9b481f232fc7e81e974116aaa3e26ad0100754d8c2",
        "she1":
            "f979fe5ca507513cff56998593c30c04eb8062774a920eddfa5defdf08e149a4",
        "she2":
            "cecc4fbe0fa98016f53f54d5bd6cbc1fdc1dabfa744346a3a0e7cd1bc6871a23",
        "she3":
            "c7a5da1cfff0264617dc5c9ee4a61f1594aa9cd61f28075c5a40a0f616754745",
        "b9":
            "635fee9b7f1c1475223f94f6c8eba4f1eeeed46ff788241c0894d4a68a4322fe",
        "vtx":
            "0b12435badc64e0232d89bcb65fc3d1746f391a1c08edcf741f3e16047111d68",
        "gr":
            "dcaaf4dad776027a18fdf54b165c7960e8416271f153abccf170e6a6fbc95cb4",
        "c17b":
            "f879bb1682e9057b05aea79d12082aec712345e5a45b74b9adaa1e7c39f8b1af",
        "c17i":
            "afe7651657dbabcd4425f509e7c9e93c00487d5e8f16cc23821294d869d7bb44",
    },
    ("bfs", "cubes", 10): {
        "int1":
            "ada1f943fa4e52386a708a2cb9eeb16a532cf8acd39464167c5f534eed8675a5",
        "int2":
            "61999813c99fa1bcf3bf74776c625da6670207f9f176283970b806e8343ca69f",
        "int3":
            "20f121074915b80135f9cf5ef4bbc5e5f0e91df58fe03d195fe09d50d007074c",
        "int4":
            "feb23e60b7908c09a881911ff6fe02e0e385b1c0d4a838fc7a88a0af4b17ab30",
        "int5":
            "5740309d20ce589b0a6d2d31e6a170fa3887d7493022f4da5811d70593a8a008",
        "int6":
            "ac61e02165e4ba116eea18616b2a1ce3377154b995ed52f3a5254df96c5bb3d5",
        "int7":
            "a4670dc4920f27b6206d6d31e0be13d84df9502fe68e783d20846b7a14b889d0",
        "int8":
            "2c880e7df76ac9e0fe86a828f1e1e18745f79d6ff5ba954dd5ccf68c68fbaac4",
        "int9":
            "363424ac8e77131990cf83edbc10add96b11abd6082e80c5e6782795a9caed07",
        "int10":
            "d607b5dccc61655e63ee264365b3e55382834702a204d23d41cfe2c2de4a51b7",
        "she1":
            "a232c0f35b6919155f79938b8bac5e8ec767f842fdf66e8863a52bedd46fca45",
        "she2":
            "ca6eaba849032238931c224c068b824ddfee4fc2d744aae28332b5435ad5e7ba",
        "she3":
            "0c4be0a3e442243581cdb9839668b3127ff43f076967cadb2d4eefaa5b899bee",
        "b9":
            "7bf0f84112be6d9280b4dbfa437a239b0a155b6afa4efdd789ffafd5cd4ac056",
        "vtx":
            "a17ceb771961e5c7bdfa9f6989592df21fd575114a13ec89dc77b7e402e06715",
        "gr":
            "56e90c2ac970c494c88ebd18c263300e61e0e86fc7bca77af82c7ab1f8068685",
        "c17b":
            "31af58f016442751ec995a154013139e7cb839cc2e32b058f42519b155cd2933",
        "c17i":
            "e2225878eb89f28fa87ee806a76958aa097d02827c065c771701693f91b09751",
    },
    ("dfs", "size", 200): {
        "int1":
            "946db4fcdb519463b40865c4026af21d306d3040270493c9a81eb62f246e85ff",
        "int2":
            "cae6ed3160a46391dda60501e30dd3263fc6167c727899ea5ff935aa4d3803fb",
        "int3":
            "370dc23262d4fed10e32ed4e5722ab52539b41782ff44f0a4264db865701050e",
        "int4":
            "bea689306603d8ae30f6b023fc5dbbeec07e8200423fea9f7c775392fb8d6d44",
        "int5":
            "81c86a2f434f97fd0a54eb47f6c6061fb719064a0ac8b92acdb0627e590e2b52",
        "int6":
            "af82b5a6d22e801363b0ea4ce01ddc0ec873d3a613b33e2d850df0d13ea24bc4",
        "int7":
            "441fd38ed580ea2ba83b9d40a1bbe1a21fab9b5997afe735e5948f97f587a65a",
        "int8":
            "d9265deb5fc581ded8f229ea2f4a088ac89a2d4c64aa55c2e00d589f6940a86c",
        "int9":
            "d6c6a9727acabab03fb3af4b350bef28f80f48f00b7cfe788af820caa0491ee3",
        "int10":
            "c9b09a07ace4ba04b393e69d4fba5bffb84e6be3f2d3b4896c83781b1e1e1c6c",
        "she1":
            "e7a6be97fc4dfa34593df4c0ebfb5073325714e8d54e57de46b0c8b75805ec35",
        "she2":
            "811b0ae9a7a80d886b2e86946e1acf1b5c4d43684c869b02d5c70f8e99f4127f",
        "she3":
            "a6fb9af7a57d235b1bf4ae67e9e59e157b145e04095873c7bf4f9119f08c25e0",
        "b9":
            "0a93c3aa7f4d4d86ea7f040f5d276669c05d05f91ba47a06d45ccc8df5f804a6",
        "vtx":
            "6803402a17a49c78d2d57f0652e2441955021f2eb90165d3f0aae215fa5d13fb",
        "gr":
            "fc71445bf81189ac35f6f77154dce39c77cf94aea39196b150f383e18141a811",
        "c17b":
            "13e5a00035978223d1ec1423426d5ae24361a62553fc6451ccc486bd1b23b449",
        "c17i":
            "82c82e13440079ad0aab6245e4b3ebf27052518765ec9b371490b707c73dbbd1",
    },
}

RESYNTH_DIGESTS = {
    "s27":
        "89583164deb334fd822ccc9c697346471b9b2ff4820337ee6533f8475c999aaa",
    "s208":
        "0a5b5b5cdb2c829f53f1622a14e295074a717a7792f99f224d5e854898b1e45f",
    "s298":
        "3739c361d86ff969133d0f65c5a880a3e718e0beb5dacec2b52fe146cb7db98c",
    "s344":
        "83767083a7c089cad0c0b5a05f29faff9c2adb0ab9ee9829e5b0dd333da5fc85",
    "s349":
        "0c785948ca7de71f1417318dbba774821035b061f5040eb9adc4093a561d9628",
    "s382":
        "56739c8c45a308d85ba1d5fa223a42eb854ad4bb65482bd9e6b7ec71d901ecba",
    "s386":
        "1ae3bf43d09ea3a44086eeedd108a34c7ae9ba2ae26e4b7464b2c35c3d5e1b7c",
    "s400":
        "4f9dba3d37b8c6f7ed421604f91c4dfcbe2197f0b2052c4d05d8952c54296176",
    "s420":
        "cc274dc56808dd61f67151ddb0af861a05d290c16fe018deaa23a87008b457f7",
    "s444":
        "93dfc44b4feefbb4c27aea17f2f37d3d8b20ad3d80aca18f462070419a8c5707",
    "s510":
        "e317c9eff84b93fa6fa9d206efb0eaaaf2492844e93dbd7bd3bac4c10e82a2f7",
    "s526":
        "c999aac144a9bf758db7018877db87069b1e335a0f60dccd7c2f313f685616cf",
    "s641":
        "b6625de90f8d78849df528080cef5305827f9c7d92cb03719c580d0caefb2985",
    "s713":
        "b43584f08ca22d20fbb3fafebdc99872a1a58ba974963f6337eac35a3491868e",
    "s820":
        "8800d87e5f5ea511df7ed04daf0b817a89cf4d319087340b4553958d39389ef9",
    "s832":
        "63922501d9099572bbe6affe445fc416d5f59c1ce65e5be3bb8dcc2636b46ffa",
    "s953":
        "af0d32a682123c4ab174ada4b74a5ac13823fd54ecb3f9f699bb82d99e1c83fc",
    "s1196":
        "2711e4540b3beea727fcef2a86271bf746e41077e9a8dc3e713e0dc57555e99a",
    "s1238":
        "de90bcaa4a454cf5ad735ab7551df7d19dce38c626ad89719e47fed5a4905e92",
    "s1488":
        "038e67549571ffc4870c27d1bed6a94c4d50981649d298d1f7c6c0be224b3f49",
    "s1494":
        "46f674b656e91a185ff33f8f662c4a62b3e8453b5d565d2f2c8d7beffcd17885",
    "sbc":
        "f8c8cb78bd714c6f2095d0afa66a4172fc56f0afea40f6e1b6c1d975663ee3d8",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_instance_and_circuit_is_pinned():
    names = [instance.name for instance in SUITE]
    assert len(names) == 18
    for pinned in TABLE2_DIGESTS.values():
        assert list(pinned) == names
    circuits = [spec.name for spec in CIRCUITS]
    assert len(circuits) == 22
    assert list(RESYNTH_DIGESTS) == circuits


@pytest.mark.parametrize(
    "strategy, cost, max_explored, name",
    [config + (name,) for config, pinned in TABLE2_DIGESTS.items()
     for name in pinned])
def test_table2_answers(strategy, cost, max_explored, name):
    report = Session().solve(SolveRequest(
        relation={"kind": "bench", "name": name},
        strategy=strategy, cost=cost, max_explored=max_explored))
    assert report.ok, report.error
    row = (name, report.sop, report.cost,
           report.stats["relations_explored"], report.stats["splits"])
    assert sha256(repr(row)) \
        == TABLE2_DIGESTS[strategy, cost, max_explored][name]


@pytest.mark.parametrize("name", list(RESYNTH_DIGESTS))
def test_resynthesis_blif(name):
    report = resynthesize(ResynthRequest(circuit=name, passes=2, window=8,
                                         max_explored=8),
                          session=Session())
    assert report.ok, report.error
    assert sha256(report.blif) == RESYNTH_DIGESTS[name]
