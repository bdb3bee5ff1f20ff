"""Every pinned output, as the command that prints it and the sha256 of
its stdout.

This is the only file that holds a pinned digest.  tests/test_pins.py
replays PINS, and runs the release gate once more under python -O;
tests/test_cli.py replays ROW_PINS and reads two digests of PINS.  CI runs
those tests on every Python it supports, so a change that moves a pinned
byte on purpose re-pins here and nowhere else.
"""

# the Dobinski series that no CLI command reaches, run as a script: one
# JSON line each
API_SERIES = '''\
import json
from degenstirling.bell import dobinski_rr, gamma_formula_classical

def rat(q):
    return f"{q.numerator}/{q.denominator}"

for res in (dobinski_rr(4, 3, 7, "-9/4", "1e-300"),
            gamma_formula_classical(4, 3, 1, "1e-300"),
            gamma_formula_classical(3, 4, 2, "1e-300")):
    print(json.dumps({"value": rat(res.value), "terms_used": res.terms_used,
                      "tail_bound": rat(res.tail_bound)}, separators=(",", ":")))
'''

# (the arguments of `degenstirling`, or API_SERIES, and the sha256 of stdout)
PINS = [
    # the release gate, also without asserts
    ("verify --order 6",
     "fd2a83357840f180d42e479a9a81da2daab5982fd983ac90715b6273ceda7f77"),
    # the full release gate
    ("verify",
     "c37307aee0f39f1d2ef1296de33458fea379ef5b9a41c366507c6ea825efd9c2"),
    # the larger release grid, rows up to n = 6, r = 4
    ("verify --max-n 6 --max-r 4 --max-s 4",
     "ade7a4e30fe0dcf9c0ea1134640cd8d106b7b3ed7466fc21090e639d8663c0b1"),
    # wide l-coefficient Weyl rows
    ("normal-order --n 20 --r 5 --s 5",
     "729c90d37c8f86005b9afa9f49bd50191980baf5aa0a753cf9196ed64faf83c1"),
    ("normal-order --n 60 --r 4 --s 3",
     "2ca65947cc808dac985935241f8ff2f66fc419b1426b26c13d5fd97eb8eaff80"),
    ("normal-order --n 30 --r 5 --s 2",
     "a2eb34aa37ca49f56eefee1e9c1ae790abb45584f735c300edecc467916cd662"),
    # rows evaluated at an integral l
    ("table stirling-rs --n 6 --r 3 --s 2 --eval-lambda 2",
     "6bc629ac24f83caed58bdefd7e8e79497a4247ed2dca098c125d6ddc616399b9"),
    ("table stirling-rs --n 6 --r 3 --s 2 --eval-lambda=-3 --format csv",
     "f4315f521da181e72df262b3a16a63202ab385a3e925b976e34cfae29b57f520"),
    # Dobinski series at tight tolerances
    ("dobinski --n 4 --r 4 --s 3 --x 7 --lambda=-9/4 --tol 1e-300",
     "b77ea6a1d66489f64eca797493b779f1f3a504af6c0e91351477a1414806085b"),
    ("dobinski --n 3 --r 3 --s 2 --x 1/3 --lambda 5/2 --tol 1e-1000",
     "e2b430440c33a1f5628f08060d7552ee930b13a6337d60ddffb80360fe2eda95"),
    # the Dobinski suite at a tight tolerance, both start indices
    ("verify --suite dobinski --tol 1e-300",
     "1c22c483d682e7fa9af0d777042a16df282018e736b3f797f820dfe7433909ba"),
    # the Dobinski suite where the Gamma checks, which --max-s does not
    # bound, read shapes that the series checks never built
    ("verify --suite dobinski --max-s 1",
     "b5fa140b9c5f780e98f38de59adbab4ecb9320ecf5ffe3723ad725b4999e1835"),
    # the series lab's products and the shifted-Bell recurrence's forms at
    # sizes that the other pins do not reach
    ("verify --suite egf --order 12",
     "4d08c42fd3678c635c7d5c9e1724d196d527b2cd5f16bbb57f38ecba596f495b"),
    ("verify --suite recurrence --max-n 8 --max-r 5",
     "fda7ca745c83ee5a1ec5a78820a18bc244e0376181129069e30249c19a105a2c"),
    # the API-only series, which no CLI command reaches
    (API_SERIES,
     "658db1d6859dd4d47f83ba5d5bdc61d565fbac6f9a58e75a7d1e622ed2b6862b"),
]

# rows far past the sizes the worked examples cover: (the arguments of
# `degenstirling table`, and the sha256 of stdout)
ROW_PINS = [
    ("table stirling2 --n 60",
     "808a70db6875f593904c33850ec204b1d70a59eecea8db3694349a0e163f0a51"),
    ("table stirling-rs --n 24 --r 3 --s 2",
     "1cd6eced10b7d74a54350e6ca1f373e5c5aaf4d9feae9de9c2ff77794310b320"),
    ("table stirling-rr --n 12 --r 3",
     "e08966336e662b64a0d0a8efde6d976e3f26cd98c40f22509410911395e4fc85"),
    ("table r-stirling --n 30 --r 3",
     "40a0dfd4d2da1cb711c30800608bb758d327d5a3f465cba5b121a7fe66c7d074"),
    ("table lah --n 30",
     "a25d6f8992a53d9467c888703b2c2ca63054f90f0d6a6a4144b6e8af68102bd8"),
    ("table lah-signed --n 30",
     "ece6b587897ad4d71a721b12ff5686dc29a12133520d3dccdd3558aa9e53cbc7"),
    ("table r-bell --n 20 --r 2 --format csv",
     "097bffecfb633a9b164e6519809b7e4a39aff123947dc825a7edbd00acd45270"),
    ("table bell-rs --n 16 --r 4 --s 3 --eval-lambda=-7/3",
     "f69fa4f68380d5fc570b4166b34c86cd2c9c18459cf78ed3ff9dae8ffe38ec14"),
]
