"""Expected values shared by the unit and acceptance tests.

Everything here is either transcribed by hand from the source table of
small double polynomials, worked out on paper for tiny cases, or pinned
after being confirmed by two independent computation routes.  Tests
must compare against these constants instead of recomputing them.
"""

# The six double polynomials for S_3, hand-expanded.
S3_TABLE = {
    (3, 2, 1): (
        "c1(1)*c2(2) - c1(1)*c1(2)*d1(1) + c2(2)*d1(1) - c2(2)*d1(2)"
        " + c1(1)*d1(1)*d1(2) - c1(1)*d2(2) + c1(2)*d2(2) - d1(1)*d2(2)"
    ),
    (2, 3, 1): "c2(2) - c1(2)*d1(1) + d1(1)*d1(2) - d2(2)",
    (3, 1, 2): "c1(1)*c1(2) - c2(2) - c1(1)*d1(2) + d2(2)",
    (1, 3, 2): "c1(2) - d1(2)",
    (2, 1, 3): "c1(1) - d1(1)",
    (1, 2, 3): "1",
}

# Classical polynomials small enough to write down from the staircase.
CLASSICAL_TABLE = {
    (2, 1, 3): "x1",
    (1, 3, 2): "x1 + x2",
    (2, 3, 1): "x1*x2",
    (3, 1, 2): "x1^2",
    (3, 2, 1): "x1^2*x2",
    (2, 1, 4, 3): "x1^2 + x1*x2 + x1*x3",
}

# Quantum forms of the two degree-two singles on three letters.
QUANTUM_231 = "x1*x2 + q1"
QUANTUM_312 = "x1^2 - q1"

# Expansions of c_i(k) in the g alphabet for the smallest cases.
C_FROM_G = {
    (1, 1): "g1[0]",
    (1, 2): "g1[0] + g2[0]",
    (2, 2): "g1[0]*g2[0] + g1[1]",
}

# Determinantal expressions for members of S_5: row loads a, points b.
DET19_WITNESSES = {
    (5, 1, 4, 2, 3): ((2, 2, 1, 1), (4, 3, 2, 1)),
    (3, 5, 1, 2, 4): ((1, 0, 2, 2), (4, 1, 3, 2)),
    (3, 2, 5, 1, 4): ((1, 0, 1, 3), (4, 2, 1, 3)),
    (5, 3, 1, 2, 4): ((1, 1, 2, 2), (4, 1, 3, 2)),
}

# Census over S_5: the search expresses 113 of 120 members.  Every hit's
# determinant agrees with the e_expand and y = 0 construction routes,
# and an exhaustive search over all row orders finds none for the 7
# failures.  The stated count for this census is 112; the acceptance
# suite reports it beside the 113 and does not assert it.
CENSUS_HITS = 113
CENSUS_TOTAL = 120
STATED_CENSUS_HITS = 112
CENSUS_FAILURES = frozenset({
    (1, 5, 3, 2, 4),
    (2, 5, 4, 1, 3),
    (3, 1, 5, 4, 2),
    (3, 5, 1, 4, 2),
    (5, 1, 3, 2, 4),
    (5, 2, 4, 1, 3),
    (5, 3, 1, 4, 2),
})
VEXILLARY_S5 = 103

# Normal form of x1^3 in the quotient ring at n = 2, i.e.
# x1^3 = g1[1]*(2 x1 + x2) - g1[2] modulo the ideal; worked by hand.
NF_X1_CUBED_N2 = {
    (1, 0, 0): "2*g1[1]",
    (0, 1, 0): "g1[1]",
    (0, 0, 0): "-g1[2]",
}

# sha256 of the sorted lines "<monomial>: <normal form>", text form, over
# every monomial in x_1..x_{n+1} of degree at most n(n+1)/2 + 2.  Pinned
# from the per-degree linear-algebra reduction and matched by the monic
# triangular rewrite that replaced it.
NF_DIGESTS = {
    1: "9798d7206299f8551160cd89c954738bbf18e717bfecbce92d268f820d7fab60",
    2: "21a8a03f254fb50e8d43702c9f0d0107e6d6ebcc43c75eb6bc804ae37ffacdb4",
    3: "8966433680e6b92769a34727a71b3dffb850bf185b2486871af7d09b38023a7c",
}

# sha256 of the newline-joined lines "<object>: <printed form>", pinned
# from the four hand-written renderers before they were folded into one
# formatter:
#   text, latex  universal_double(w, 3) for every w in S_4;
#   melement     MElement.text() of universal_single(w, 4), w in S_5;
#   locus        render_locus of every strict (w, A, B) on S_4 whose
#                rank profile covers the codiagram of w.
RENDER_DIGESTS = {
    "text": "5b1328f274f46f4e18290dd2197fd46ddb62caa3fcade2d06b8c195eab972374",
    "latex": "80e37727d9f34e3d9422acf91d06991d8285aa6eb86db6420056722e93b10907",
    "melement": "636d0ecc2d17cd19286a0d445f12d921873a42622674002b5e9a4b5aed9efbc3",
    "locus": "1341535a5c06e14d0dae4771772b38895734bb72a3d25902e8de30aac0553806",
}
