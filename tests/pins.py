"""Every pinned output, as the command that prints it and the sha256 of
its stdout.

The commands and digests are the ones that `.github/workflows/tests.yml`
checks with sha256sum; tests/test_pins.py replays each of them and checks
that this table and the workflow name the same pins.  A change that moves a
pinned byte on purpose re-pins here and in the workflow.
"""

# the script the workflow runs through `python -`: the Dobinski series that
# no CLI command reaches, one JSON line each
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
    ("verify --order 6",
     "fd2a83357840f180d42e479a9a81da2daab5982fd983ac90715b6273ceda7f77"),
    ("verify",
     "c37307aee0f39f1d2ef1296de33458fea379ef5b9a41c366507c6ea825efd9c2"),
    ("verify --max-n 6 --max-r 4 --max-s 4",
     "ade7a4e30fe0dcf9c0ea1134640cd8d106b7b3ed7466fc21090e639d8663c0b1"),
    ("normal-order --n 20 --r 5 --s 5",
     "729c90d37c8f86005b9afa9f49bd50191980baf5aa0a753cf9196ed64faf83c1"),
    ("normal-order --n 60 --r 4 --s 3",
     "2ca65947cc808dac985935241f8ff2f66fc419b1426b26c13d5fd97eb8eaff80"),
    ("normal-order --n 30 --r 5 --s 2",
     "a2eb34aa37ca49f56eefee1e9c1ae790abb45584f735c300edecc467916cd662"),
    ("table stirling-rs --n 6 --r 3 --s 2 --eval-lambda 2",
     "6bc629ac24f83caed58bdefd7e8e79497a4247ed2dca098c125d6ddc616399b9"),
    ("table stirling-rs --n 6 --r 3 --s 2 --eval-lambda=-3 --format csv",
     "f4315f521da181e72df262b3a16a63202ab385a3e925b976e34cfae29b57f520"),
    ("dobinski --n 4 --r 4 --s 3 --x 7 --lambda=-9/4 --tol 1e-300",
     "b77ea6a1d66489f64eca797493b779f1f3a504af6c0e91351477a1414806085b"),
    ("dobinski --n 3 --r 3 --s 2 --x 1/3 --lambda 5/2 --tol 1e-1000",
     "e2b430440c33a1f5628f08060d7552ee930b13a6337d60ddffb80360fe2eda95"),
    ("verify --suite dobinski --tol 1e-300",
     "1c22c483d682e7fa9af0d777042a16df282018e736b3f797f820dfe7433909ba"),
    (API_SERIES,
     "658db1d6859dd4d47f83ba5d5bdc61d565fbac6f9a58e75a7d1e622ed2b6862b"),
]
