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

# sha256 of the newline-joined lines "<w as 5 comma-separated values>: <quantum
# form>" over S_5, quantum_specialize(universal_single(w, 4).to_polynomial("c"))
# in text form (25,738 bytes).  Pinned from the quantum-only substitution,
# before the quantum ring became the full-flag case of the flag map.
QUANTUM_DIGEST = "4b22c4d5a5fd6780e65744d1a4c158f3d40c39410b6e3e925fa79eca7fed1e7d"

# sha256 of the newline-joined lines "<N, comma-separated>: <w.as_tuple(top),
# comma-separated>: <route-A flag form>" over every profile N inside 5 (every
# nonempty subset of 1..5, in the mask order of cli._profiles) and each of its
# members: 633 lines.  Pinned from the two-pass route, which built the whole
# g-form and then mapped its g variables.
FLAG_DIGEST = "25f585066909d51417b71dcd7616b222d445f14935d70d8cde04e268e9220e00"

# sha256 of the newline-joined lines "<w as 6 comma-separated values>: <g-form>"
# over all_perms(6), to_g_form(universal_single(w, 5).to_polynomial("c")) in
# text form (720 lines, 5,314,388 bytes).  Pinned from the substitution that
# rebuilt each term's image as a chain of products, before the g-form read each
# monomial through a memo built from its prefix's image.
G_FORM_S6_DIGEST = "5bcef88ff17756dc4cb68f503ddccbc156d2f255035171842ae8a809002b664e"

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

# sha256 of the newline-joined lines "<u> * <v> -> <w>: <coefficient>", text
# form, over u, v in all_perms(4) order and w by (length, word), each word as
# 4 comma-separated values, from multiply_expand(u, v, 3): 4,905 lines and
# 240,164 bytes.  Pinned from the slice-by-slice expansion before both
# Schubert-basis expansions became one heap peel.
MULTIPLY_DIGEST = "10c46bb0998a278aeda22ae15984ffd54ca0cf8cb4f6cd0b61e01ad00053fec0"

# sha256 of the newline-joined text forms of normal_form(omega(sigma_{v*w0}))
# over v in S_{n+1} by (length, word), the 24 duals at n = 3 and then the 120
# at n = 4: 144 lines.  Pinned from the normal form that added each
# memoized form to its sum one staircase key at a time.
DUAL_NF_DIGEST = "e1ad5f30006435c04d3d1a34b8d12419ea1a3b5a96569237dd45223079888da0"

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

# sha256 of the lines "<w> <A> <B>: <interval-mode locus>", each ending in a
# newline, over every w in all_perms(5) (written as 5 comma-separated values)
# and every pair of nonempty subsets A, B of 1..4 (comma-separated, in bitmask
# order 1..15) whose RankProfile(A, B) covers the descents of w, each locus
# printed by render_locus: 2,930 lines.  Pinned from the substitution that
# multiplied out each snapped point's image polynomial, before interval mode
# became a relabel.
LOCUS_INTERVAL_DIGEST = "f8319d4629f6660055e076fd9e0834025ecda679a026aad859ae3c76d588aa51"

# sha256 of the stdout of ``uschub expand <expr>`` (text format), pinned from
# the worklist elimination that rewrote a monomial each time it came back,
# before square elimination became a peel that rewrites each monomial once.
EXPAND_DIGESTS = {
    "c1(1)^8": "0cad1c85b8b9f93053c5c7fbf7f430cc20bbf874d4ca0f960c9e5bee81dcb972",
    "c1(4)^8": "dd58795ef7e809d229a1685004796cbdb675e0307b37a388438073444d6c7530",
}

# sha256 of the stdout of ``uschub census --n 4`` (5,444 bytes of text, 32,053
# of JSON), pinned before the census kept its hits as (w, (sigma, DetSpec))
# pairs and built the JSON records only for printing.
CENSUS_N4_DIGESTS = {
    "text": "10308ee135d622d3aa295e1c9f307c0dd6e1c13e12b3f132748fc706e3398b63",
    "json": "f499e9b6e9699e0adad95239300472c1f9264d45882bec31cb2fe88232fed7d6",
}

# sha256 of the stdout of ``uschub census --n 5`` (text format), pinned from
# the search that compared each row order's Laplace determinant with the target
# polynomial, before it walked the column choices in code space.  The last line
# is ``expressed 572 of 720``.
CENSUS_N5_DIGEST = "e296e58f3b51c1357b49287a897ff967c19799062bbc292d36499fc178902115"
CENSUS_N5_HITS = 572

# sha256 of the stdout of ``uschub search-det19 <word> [--exhaustive] --format
# <format>``, pinned with the census digests.
SEARCH_DET19_DIGESTS = {
    ("5,1,4,2,3", "text"): "65efad467387f7b78810b772ca87ea25de0c03500af3ff323bbfd53a6e971331",
    ("5,1,4,2,3", "json"): "981f2af8ae8dcabc1596ed059646b557e63f2792f2dcf9271667c0748c9352bc",
    ("5,1,4,2,3", "--exhaustive", "text"): "65efad467387f7b78810b772ca87ea25de0c03500af3ff323bbfd53a6e971331",
    ("5,1,4,2,3", "--exhaustive", "json"): "07e0f01dc108df018dd78fd5e4ce9a18e9c747e0a2925c3e6c831aafb2b96d2b",
    ("3,5,1,2,4", "text"): "7b96343da85cd22dd30863cb4ead15810fc9e76647700006598937db6e45597d",
    ("3,5,1,2,4", "json"): "7154fe1c4667c8c57f2cdf2a7b7acb2d223cacba8b420b6e506ab3819711ea0b",
    ("3,5,1,2,4", "--exhaustive", "text"): "7b96343da85cd22dd30863cb4ead15810fc9e76647700006598937db6e45597d",
    ("3,5,1,2,4", "--exhaustive", "json"): "72c24943068bdaaa224bfac2f3543c851d23256f5baad8041549a896dfc08382",
    ("3,2,5,1,4", "text"): "a1ff9e16e954290d1ec1f3dbdff7f53333a9757f4151df74cdcc3cc2ef4c3bc4",
    ("3,2,5,1,4", "json"): "a6d8b4f0023b6185437994db04669e589c5fb22ea890dd9f8b0b8092de511c72",
    ("3,2,5,1,4", "--exhaustive", "text"): "a1ff9e16e954290d1ec1f3dbdff7f53333a9757f4151df74cdcc3cc2ef4c3bc4",
    ("3,2,5,1,4", "--exhaustive", "json"): "402c8e39225cb3df1fce517794b71db70bfd888f0b0c9858af645dd1296cd6e9",
    ("1,5,3,2,4", "text"): "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345",
    ("1,5,3,2,4", "json"): "2bfe14c86c6ff3a77a1904a83ceba7589e80aa770446fee8f59136c2a9bbc2d2",
    ("1,5,3,2,4", "--exhaustive", "text"): "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345",
    ("1,5,3,2,4", "--exhaustive", "json"): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}

# The stdout of ``uschub verify census``, which exits 2 on the stated count,
# pinned with the census digests.
VERIFY_CENSUS_STDOUT = (
    "ok census: search finds D_{1,0,1,3}(4,2,1,3) for 3,2,5,1,4 ({'a': [1, 0, 1, 3], 'b': [4, 2, 1, 3]})\n"
    "ok census: search finds D_{1,0,2,2}(4,1,3,2) for 3,5,1,2,4 ({'a': [1, 0, 2, 2], 'b': [4, 1, 3, 2]})\n"
    "ok census: search finds D_{2,2,1,1}(4,3,2,1) for 5,1,4,2,3 ({'a': [2, 2, 1, 1], 'b': [4, 3, 2, 1]})\n"
    "ok census: 1,5,3,2,4 admits no expression (None)\n"
    "ok census: vexillary count in S_5 is 103 (103)\n"
    "FAIL census: expressions found for exactly 112 of 120 (found 113)\n"
    "1 check(s) failed\n"
)

# sha256 of the stdout of ``uschub --help`` and of ``uschub VERB --help`` for
# each of the eleven verbs, keyed by the arguments after ``uschub``.  argparse
# wraps help at the terminal width, so these are the bytes with COLUMNS=80
# (Python 3.11's layout), pinned before the sub-commands were declared
# through one helper.
HELP_DIGESTS = {
    ("--help",): "d4ab4c3c116484a03db18d53e08871751b1783f5be382a0778a3f2eeab7e1091",
    ("single", "--help"): "16b0543c11442c9b1aec110329ac8018f1d73fbd7e2905b5bef6f9ea3fde0945",
    ("double", "--help"): "934079de8edcbf3f78d17965de3c951a326493c7a964fbb0ad2ea21935613e70",
    ("specialize", "--help"): "7bd0c38a4e35983357fedfa596a919a08a6c7af6e9ec954424c59c49d96885bf",
    ("locus", "--help"): "ed41d3364e8e8591ea5adfb705077fa5568fd75a3c70d0c3af3f350baae1b532",
    ("expand", "--help"): "1d8f253ed3c90fcb7542b797971ed80f63eda81456b49190a926f0f94a9f5810",
    ("product-rule", "--help"): "83cfda0a81c5e45c57d84cc319f2d233eb6a7fa0fa488ad794bb66eb5b550526",
    ("search-det19", "--help"): "0d9277d721e688613a42dad4bee41c46dc464c9f5736f5cd4adf8270db70c623",
    ("census", "--help"): "4686e718bcba240eec3ac507ae8cdfc18ccf11eaae1ede779622de97b2e24bde",
    ("ring", "--help"): "a88ba682f1ad9c7f0ea6cd15d2a015fecfe773a87f239de3406ae992eb032216",
    ("table", "--help"): "df2f8943e1449b70cccdeff6fe17b7ab92a035ae9dfb4e72b1fbe29ab0ea8217",
    ("verify", "--help"): "ecabcdf0e5263d4fb0e0aad160fadac36c38192f1917cfcf3843241a63bdfbd1",
}
