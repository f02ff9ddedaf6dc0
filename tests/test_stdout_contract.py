"""The stdout of every output that holds no optimizer result, pinned byte for byte.

Each digest is the sha256 of the UTF-8 stdout of ``cli.main`` for one argv.
None of these outputs depends on floating-point roundoff, so the digests hold
on every supported numpy; a change to any of them changes the JSON contract.
"""

import hashlib

import pytest

from merminkit import cli

STDOUT_SHA256 = {
    "instr --device u3 --max-solutions 100":
        "7ad05c1a7e4ee9e356d7cda83781b12d07091f598044c4c2678db3a4f1e0f40f",
    "instr --device u3-last3 --max-solutions 100":
        "24cf4ef3bc2d49f37dcec7ba201a5316a1ca7bde7329eb38d3678c3b70baa066",
    "instr --device u4-1 --max-solutions 100":
        "33a3762a0caa07264e433aaa3a3d02b04cc37489759071aa3a20a94ee568bdc0",
    "instr --device u4-2 --max-solutions 100":
        "49974b6d0bff05d799d34bbe3aa07697f5dde72a9a3791ccb0b9acf2a21d3fd4",
    "instr --device u4-3 --max-solutions 100":
        "afe73e408915a4095ae051edf480efb1d6582e53a7091ee07d100d61b59f36ad",
    "instr --device u4-4 --max-solutions 100":
        "ffd3b44b318cc2d72e099eec6df253a9c0c795f6f3aad5c0ff8ded1160ea6221",
    "instr --device u4-5 --max-solutions 100":
        "f3ef491ecd3648b4ec3d58a4a1874225076884f83dba4866c2f4337e5bc5ddac",
    "instr --device u4-6 --max-solutions 100":
        "ff79837a3534f8ba44c0a29a03cb3c1814cbbbc3e005340d9f148bc2e6abf426",
    "instr --device u4-7 --max-solutions 100":
        "e10e9bdf8336676964c4bb1c6abae9bfd573a6b116f94060e8480f4d66b2c2e3",
    "instr --device u4-8 --max-solutions 100":
        "6ccc48af92c405983babb3a3d457b72baaaefa0795ebb5eba095eaa341725da9",
    "instr --device v31~ --max-solutions 100":
        "af7cba7e8c9d27c4af6f22079356e8826c08e26fa9f3f0d86a4ed058330d7b59",
    "instr --device v31~-relaxed --max-solutions 100":
        "ad0da47c9fea079bb8cd9e03c9d4863c2b6222f108f8fa67ecf7235637df4e6d",
    "instr --device v41~ --max-solutions 100":
        "1c671b5a1b85f3bd7b0f5922c3789a6fdeabd048048334e07c98e31f9745415e",
    "instr --device v42~-1-1 --max-solutions 100":
        "4a7f75cd32411bb4a971916eb95f3b85ef5888e89244082400e0ae19b85da912",
    "instr --device v42~-1-2 --max-solutions 100":
        "80ffacc9d8b808b6a54b27bd7cfec5a92522a81cc6e8510dd920d1a15ed73909",
    "instr --device v42~-2-1 --max-solutions 100":
        "20f23a7d599f5ceb21189209b11475304f86f4916dc90846dd3d47a346ab5d92",
    "instr --device v42~-2-2 --max-solutions 100":
        "abfe1830a64b81fdc3e1e8b221897875a311e675411d12ddd04ba5ad6387960c",
    "instr --device v42~-3-1 --max-solutions 100":
        "2e2e80034e7d3d195d43d8ba32f75559f96f4dc8d6f17d6d08b345a511f41225",
    "instr --device v42~-3-2 --max-solutions 100":
        "a584eed3228e684daee715ca5afd12de770120ba8b84f89eb31e58c785c41f70",
    "instr --device v42~-4-1 --max-solutions 100":
        "7d7a4ff292c8b8757403fad2aa8db087a55e3ad25444d1b8d67c98927ca5ab4a",
    "instr --device v42~-4-2 --max-solutions 100":
        "a94d8d184f5da21e4c869a6566f726d0c2506a760293b648d2c6a210041bbfa9",
    "identities":
        "2872f0d38ecf26914cbb2f33deeb84f79abc06c1bae5b20df51e65aea629fff2",
    "eigenops --state u3 --catalog":
        "8d583f8de1e87e94babafb375d80501eb225b4adc57cf36a3f7e6a5b0c09da96",
    "eigenops --state v31~ --catalog":
        "377bc6c370842ea768d60e5d91d7949bfb4d8b1b457d9979676c6e40ff7732c8",
    "eigenops --state u4 --catalog":
        "4977b422ba0ea3557c2a33826205312c0d88567ce68be1edf6ce66a146face28",
    "eigenops --state v41~ --catalog":
        "126f0658c32f53510c06897fa5dfacd833cba914a3bf38ec5bb8d55779ae32b9",
    "eigenops --state v42~ --catalog":
        "be6663dea338dba66f45bf94d5270bfd44d4ce4671a158cd325a91b8cf1ae07b",
    "state --id u3":
        "5a0b6ce3545106896e1549cc6426e55f34f057a25c91cd5e535536e275a27b89",
    "state --id u4":
        "fe88df40385aade5d2af348ce646bdc3fdcbc9be9199d6ec5a82a68ddba43377",
    "state --id v31":
        "f819d1b95fea04a31f3bc7f64252dcf74822bda0abab7126e426702524b40344",
    "state --id v41":
        "c6b86dc1ed54d3c53125650816af618ae2f07cf0fc511ba88299d4a86b1f4785",
    "state --id v42":
        "afb4dde0e13f744c4f012a896750fd1c96dd52d7d81a158bb802a328feb24ebe",
    "state --id v31~":
        "eb8329338307370f5b25c362c531e1d5053f79ba75281ab208ce5695851ee217",
    "state --id v41~":
        "c669f8413f9a1ea949aaa0a2f09efcb98609000dbd09f0f329775395b5c4cea1",
    "state --id v42~":
        "afb4dde0e13f744c4f012a896750fd1c96dd52d7d81a158bb802a328feb24ebe",
    "state --id ghz3":
        "5a0b6ce3545106896e1549cc6426e55f34f057a25c91cd5e535536e275a27b89",
    "state --id ghz4":
        "fe88df40385aade5d2af348ce646bdc3fdcbc9be9199d6ec5a82a68ddba43377",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_stdout_is_byte_identical(capsys, argv):
    assert cli.main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[argv]


# the file that ``contour --out`` writes; its stdout names the path, so only
# the file is pinned here
CSV_SHA256 = {
    ("v31", "+"): "5b2304b6129ae4fb65240d3c99910e4384075eb33b6230b0e05800e670ca666f",
    ("v31", "-"): "d703e81ef6d026ccc35dc53c93f6d060515952469611ded4e9e482ddf7945eee",
    ("v41", "+"): "a4fca9044526222210f6204f4143ac797ff203fd02a064751738ce2bb3c7f5a6",
    ("v41", "-"): "41bab19da25f354a4baa84c943a85bf6c489b353eee8bd6d10c80f8072bb48a5",
    ("v42", "+"): "f84d38586543b056413ef482a969e1dd53771d62b6ceb105b09eff312a64a005",
    ("v42", "-"): "4fa03ba5481eb96c4db2da7a17788081c58c33b5b917fdd9c884161138e10e8c",
}


@pytest.mark.parametrize("state,sign", sorted(CSV_SHA256))
def test_contour_csv_is_byte_identical(tmp_path, capsys, state, sign):
    out = tmp_path / "grid.csv"
    argv = ["contour", "--state", state, "--sign", sign, "--res", "201", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[state, sign]
