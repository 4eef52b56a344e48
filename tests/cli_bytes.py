"""The exact (exit code, stdout, stderr) of qmex command lines.

Captured in-process with ``COLUMNS=80`` under CPython 3.11's argparse,
when every command line still built the parsers of all eight commands.
``test_cli.TestPinnedBytes`` asserts each of them byte for byte, so a
parser built for one command prints what the full parser printed: help,
version and every usage error.
"""

PINNED = [
    (
        [],
        2,
        "",
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "qmex: error: the following arguments are required: command\n"
        ),
    ),
    (
        ["--help"],
        0,
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "\n"
            "Exact q-series for excludant statistics of integer partitions.\n"
            "\n"
            "positional arguments:\n"
            "  {series,oracle,verify,hrr,asym,tauberian,refine,export}\n"
            "    series              print a cataloged series\n"
            "    oracle              brute-force statistic sums\n"
            "    verify              check registered identities\n"
            "    hrr                 exact-phase Rademacher partial sum\n"
            "    asym                leading-order growth of a statistic sum\n"
            "    tauberian           series value at exp(-t) against prediction\n"
            "    refine              one slice of a refined family\n"
            "    export              write a series to a file\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --version             show program's version number and exit\n"
        ),
        "",
    ),
    (
        ["-h"],
        0,
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "\n"
            "Exact q-series for excludant statistics of integer partitions.\n"
            "\n"
            "positional arguments:\n"
            "  {series,oracle,verify,hrr,asym,tauberian,refine,export}\n"
            "    series              print a cataloged series\n"
            "    oracle              brute-force statistic sums\n"
            "    verify              check registered identities\n"
            "    hrr                 exact-phase Rademacher partial sum\n"
            "    asym                leading-order growth of a statistic sum\n"
            "    tauberian           series value at exp(-t) against prediction\n"
            "    refine              one slice of a refined family\n"
            "    export              write a series to a file\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --version             show program's version number and exit\n"
        ),
        "",
    ),
    (
        ["--version"],
        0,
        "qmex 0.1.0\n",
        "",
    ),
    (
        ["--version", "hrr"],
        0,
        "qmex 0.1.0\n",
        "",
    ),
    (
        ["nope"],
        2,
        "",
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "qmex: error: argument command: invalid choice: 'nope' (choose from 'series', 'oracle', 'verify', 'hrr', 'asym', 'tauberian', 'refine', 'export')\n"
        ),
    ),
    (
        ["--", "hrr", "--n", "5"],
        2,
        "",
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "qmex: error: argument command: invalid choice: '--' (choose from 'series', 'oracle', 'verify', 'hrr', 'asym', 'tauberian', 'refine', 'export')\n"
        ),
    ),
    (
        ["series", "--help"],
        0,
        (
            "usage: qmex series [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}]\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "\n"
            "positional arguments:\n"
            "  {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --order ORDER\n"
            "  --form {canonical,alt1,alt2}\n"
            "  --format {csv,json}\n"
        ),
        "",
    ),
    (
        ["oracle", "--help"],
        0,
        (
            "usage: qmex oracle [-h] --n N [--distinct] {mex,moex,maex,largest}\n"
            "\n"
            "positional arguments:\n"
            "  {mex,moex,maex,largest}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --n N\n"
            "  --distinct\n"
        ),
        "",
    ),
    (
        ["verify", "--help"],
        0,
        (
            "usage: qmex verify [-h]\n"
            "                   (--all | --identity {a-d-form-equivalence,a-d-oracle,a-series-oracle-gate,chern-sigma-maex-oracle,d-i-bijection,d-i-sum,euler-identity,moex-form-equivalence,refined-maex-weighted-sum,refined-mex-slice-oracle,refined-mex-unweighted-sum,refined-mex-weighted-sum,refined-moex-weighted-sum,refined-omex-sum,sigma-d-maex-oracle,sigma-d-mex-oracle,sigma-d-moex-oracle,sigma-l-oracle,sigma-mex-equals-d2-oracle,sigma-sum-identity,thm-sigma-d-mex})\n"
            "                   [--order ORDER] [--oracle-max ORACLE_MAX]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --all\n"
            "  --identity {a-d-form-equivalence,a-d-oracle,a-series-oracle-gate,chern-sigma-maex-oracle,d-i-bijection,d-i-sum,euler-identity,moex-form-equivalence,refined-maex-weighted-sum,refined-mex-slice-oracle,refined-mex-unweighted-sum,refined-mex-weighted-sum,refined-moex-weighted-sum,refined-omex-sum,sigma-d-maex-oracle,sigma-d-mex-oracle,sigma-d-moex-oracle,sigma-l-oracle,sigma-mex-equals-d2-oracle,sigma-sum-identity,thm-sigma-d-mex}\n"
            "  --order ORDER         series comparison order\n"
            "  --oracle-max ORACLE_MAX\n"
            "                        maximal n for oracle entries\n"
        ),
        "",
    ),
    (
        ["hrr", "--help"],
        0,
        (
            "usage: qmex hrr [-h] --n N [--terms TERMS]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --n N\n"
            "  --terms TERMS\n"
        ),
        "",
    ),
    (
        ["asym", "--help"],
        0,
        (
            "usage: qmex asym [-h] --kind {sigma-mex,sigma-d-mex,sigma-l} --n N\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --kind {sigma-mex,sigma-d-mex,sigma-l}\n"
            "  --n N\n"
        ),
        "",
    ),
    (
        ["tauberian", "--help"],
        0,
        (
            "usage: qmex tauberian [-h] --t T --order ORDER\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --t T\n"
            "  --order ORDER\n"
        ),
        "",
    ),
    (
        ["refine", "--help"],
        0,
        (
            "usage: qmex refine [-h] --index INDEX --order ORDER [--format {csv,json}]\n"
            "                   {mex,omex,moex,maex}\n"
            "\n"
            "positional arguments:\n"
            "  {mex,omex,moex,maex}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --index INDEX\n"
            "  --order ORDER\n"
            "  --format {csv,json}\n"
        ),
        "",
    ),
    (
        ["export", "--help"],
        0,
        (
            "usage: qmex export [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}] --out OUT\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "\n"
            "positional arguments:\n"
            "  {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --order ORDER\n"
            "  --form {canonical,alt1,alt2}\n"
            "  --format {csv,json}\n"
            "  --out OUT\n"
        ),
        "",
    ),
    (
        ["series"],
        2,
        "",
        (
            "usage: qmex series [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}]\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex series: error: the following arguments are required: name, --order\n"
        ),
    ),
    (
        ["series", "sigma"],
        2,
        "",
        (
            "usage: qmex series [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}]\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex series: error: the following arguments are required: --order\n"
        ),
    ),
    (
        ["series", "sigma", "--order", "x"],
        2,
        "",
        (
            "usage: qmex series [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}]\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex series: error: argument --order: invalid _nonneg value: 'x'\n"
        ),
    ),
    (
        ["series", "nope", "--order", "3"],
        2,
        "",
        (
            "usage: qmex series [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}]\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex series: error: argument name: invalid choice: 'nope' (choose from 'a', 'chern-sigma-maex', 'distinct', 'sigma-d-maex', 'sigma-l', 'sigma-mex', 'sigma-star', 'a-d', 'sigma', 'sigma-d-mex', 'sigma-d-moex')\n"
        ),
    ),
    (
        ["series", "sigma", "--order", "3", "--form", "zzz"],
        2,
        "",
        (
            "usage: qmex series [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}]\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex series: error: argument --form: invalid choice: 'zzz' (choose from 'canonical', 'alt1', 'alt2')\n"
        ),
    ),
    (
        ["series", "sigma", "--order", "3", "--f", "csv"],
        2,
        "",
        (
            "usage: qmex series [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}]\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex series: error: ambiguous option: --f could match --form, --format\n"
        ),
    ),
    (
        ["oracle"],
        2,
        "",
        (
            "usage: qmex oracle [-h] --n N [--distinct] {mex,moex,maex,largest}\n"
            "qmex oracle: error: the following arguments are required: stat, --n\n"
        ),
    ),
    (
        ["oracle", "mex"],
        2,
        "",
        (
            "usage: qmex oracle [-h] --n N [--distinct] {mex,moex,maex,largest}\n"
            "qmex oracle: error: the following arguments are required: --n\n"
        ),
    ),
    (
        ["oracle", "mex", "--n", "x"],
        2,
        "",
        (
            "usage: qmex oracle [-h] --n N [--distinct] {mex,moex,maex,largest}\n"
            "qmex oracle: error: argument --n: invalid _nonneg value: 'x'\n"
        ),
    ),
    (
        ["oracle", "median", "--n", "4"],
        2,
        "",
        (
            "usage: qmex oracle [-h] --n N [--distinct] {mex,moex,maex,largest}\n"
            "qmex oracle: error: argument stat: invalid choice: 'median' (choose from 'mex', 'moex', 'maex', 'largest')\n"
        ),
    ),
    (
        ["verify"],
        2,
        "",
        (
            "usage: qmex verify [-h]\n"
            "                   (--all | --identity {a-d-form-equivalence,a-d-oracle,a-series-oracle-gate,chern-sigma-maex-oracle,d-i-bijection,d-i-sum,euler-identity,moex-form-equivalence,refined-maex-weighted-sum,refined-mex-slice-oracle,refined-mex-unweighted-sum,refined-mex-weighted-sum,refined-moex-weighted-sum,refined-omex-sum,sigma-d-maex-oracle,sigma-d-mex-oracle,sigma-d-moex-oracle,sigma-l-oracle,sigma-mex-equals-d2-oracle,sigma-sum-identity,thm-sigma-d-mex})\n"
            "                   [--order ORDER] [--oracle-max ORACLE_MAX]\n"
            "qmex verify: error: one of the arguments --all --identity is required\n"
        ),
    ),
    (
        ["verify", "--all", "--order", "x"],
        2,
        "",
        (
            "usage: qmex verify [-h]\n"
            "                   (--all | --identity {a-d-form-equivalence,a-d-oracle,a-series-oracle-gate,chern-sigma-maex-oracle,d-i-bijection,d-i-sum,euler-identity,moex-form-equivalence,refined-maex-weighted-sum,refined-mex-slice-oracle,refined-mex-unweighted-sum,refined-mex-weighted-sum,refined-moex-weighted-sum,refined-omex-sum,sigma-d-maex-oracle,sigma-d-mex-oracle,sigma-d-moex-oracle,sigma-l-oracle,sigma-mex-equals-d2-oracle,sigma-sum-identity,thm-sigma-d-mex})\n"
            "                   [--order ORDER] [--oracle-max ORACLE_MAX]\n"
            "qmex verify: error: argument --order: invalid _nonneg value: 'x'\n"
        ),
    ),
    (
        ["verify", "--identity", "nope"],
        2,
        "",
        (
            "usage: qmex verify [-h]\n"
            "                   (--all | --identity {a-d-form-equivalence,a-d-oracle,a-series-oracle-gate,chern-sigma-maex-oracle,d-i-bijection,d-i-sum,euler-identity,moex-form-equivalence,refined-maex-weighted-sum,refined-mex-slice-oracle,refined-mex-unweighted-sum,refined-mex-weighted-sum,refined-moex-weighted-sum,refined-omex-sum,sigma-d-maex-oracle,sigma-d-mex-oracle,sigma-d-moex-oracle,sigma-l-oracle,sigma-mex-equals-d2-oracle,sigma-sum-identity,thm-sigma-d-mex})\n"
            "                   [--order ORDER] [--oracle-max ORACLE_MAX]\n"
            "qmex verify: error: argument --identity: invalid choice: 'nope' (choose from 'a-d-form-equivalence', 'a-d-oracle', 'a-series-oracle-gate', 'chern-sigma-maex-oracle', 'd-i-bijection', 'd-i-sum', 'euler-identity', 'moex-form-equivalence', 'refined-maex-weighted-sum', 'refined-mex-slice-oracle', 'refined-mex-unweighted-sum', 'refined-mex-weighted-sum', 'refined-moex-weighted-sum', 'refined-omex-sum', 'sigma-d-maex-oracle', 'sigma-d-mex-oracle', 'sigma-d-moex-oracle', 'sigma-l-oracle', 'sigma-mex-equals-d2-oracle', 'sigma-sum-identity', 'thm-sigma-d-mex')\n"
        ),
    ),
    (
        ["verify", "--all", "--identity", "euler-identity"],
        2,
        "",
        (
            "usage: qmex verify [-h]\n"
            "                   (--all | --identity {a-d-form-equivalence,a-d-oracle,a-series-oracle-gate,chern-sigma-maex-oracle,d-i-bijection,d-i-sum,euler-identity,moex-form-equivalence,refined-maex-weighted-sum,refined-mex-slice-oracle,refined-mex-unweighted-sum,refined-mex-weighted-sum,refined-moex-weighted-sum,refined-omex-sum,sigma-d-maex-oracle,sigma-d-mex-oracle,sigma-d-moex-oracle,sigma-l-oracle,sigma-mex-equals-d2-oracle,sigma-sum-identity,thm-sigma-d-mex})\n"
            "                   [--order ORDER] [--oracle-max ORACLE_MAX]\n"
            "qmex verify: error: argument --identity: not allowed with argument --all\n"
        ),
    ),
    (
        ["verify", "--o", "5", "--all"],
        2,
        "",
        (
            "usage: qmex verify [-h]\n"
            "                   (--all | --identity {a-d-form-equivalence,a-d-oracle,a-series-oracle-gate,chern-sigma-maex-oracle,d-i-bijection,d-i-sum,euler-identity,moex-form-equivalence,refined-maex-weighted-sum,refined-mex-slice-oracle,refined-mex-unweighted-sum,refined-mex-weighted-sum,refined-moex-weighted-sum,refined-omex-sum,sigma-d-maex-oracle,sigma-d-mex-oracle,sigma-d-moex-oracle,sigma-l-oracle,sigma-mex-equals-d2-oracle,sigma-sum-identity,thm-sigma-d-mex})\n"
            "                   [--order ORDER] [--oracle-max ORACLE_MAX]\n"
            "qmex verify: error: ambiguous option: --o could match --order, --oracle-max\n"
        ),
    ),
    (
        ["hrr"],
        2,
        "",
        (
            "usage: qmex hrr [-h] --n N [--terms TERMS]\n"
            "qmex hrr: error: the following arguments are required: --n\n"
        ),
    ),
    (
        ["hrr", "--n", "x"],
        2,
        "",
        (
            "usage: qmex hrr [-h] --n N [--terms TERMS]\n"
            "qmex hrr: error: argument --n: invalid _positive value: 'x'\n"
        ),
    ),
    (
        ["hrr", "--n", "0"],
        2,
        "",
        (
            "usage: qmex hrr [-h] --n N [--terms TERMS]\n"
            "qmex hrr: error: argument --n: must be positive, got 0\n"
        ),
    ),
    (
        ["hrr", "--n", "5", "--terms", "1.5"],
        2,
        "",
        (
            "usage: qmex hrr [-h] --n N [--terms TERMS]\n"
            "qmex hrr: error: argument --terms: invalid _positive value: '1.5'\n"
        ),
    ),
    (
        ["hrr", "--n", "5", "extra"],
        2,
        "",
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "qmex: error: unrecognized arguments: extra\n"
        ),
    ),
    (
        ["hrr", "--n", "5", "series"],
        2,
        "",
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "qmex: error: unrecognized arguments: series\n"
        ),
    ),
    (
        ["hrr", "--te", "3", "--n", "4"],
        0,
        (
            "n,terms,partial_sum,rounded,residual\n"
            "4,3,9.066322407885217,9,0.0663224078852167\n"
        ),
        "",
    ),
    (
        ["hrr", "--n", "5", "--version"],
        2,
        "",
        (
            "usage: qmex [-h] [--version]\n"
            "            {series,oracle,verify,hrr,asym,tauberian,refine,export} ...\n"
            "qmex: error: unrecognized arguments: --version\n"
        ),
    ),
    (
        ["hrr", "-h"],
        0,
        (
            "usage: qmex hrr [-h] --n N [--terms TERMS]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --n N\n"
            "  --terms TERMS\n"
        ),
        "",
    ),
    (
        ["asym", "--n", "3"],
        2,
        "",
        (
            "usage: qmex asym [-h] --kind {sigma-mex,sigma-d-mex,sigma-l} --n N\n"
            "qmex asym: error: the following arguments are required: --kind\n"
        ),
    ),
    (
        ["asym", "--kind", "nope", "--n", "3"],
        2,
        "",
        (
            "usage: qmex asym [-h] --kind {sigma-mex,sigma-d-mex,sigma-l} --n N\n"
            "qmex asym: error: argument --kind: invalid choice: 'nope' (choose from 'sigma-mex', 'sigma-d-mex', 'sigma-l')\n"
        ),
    ),
    (
        ["asym", "--kind", "sigma-mex", "--n", "x"],
        2,
        "",
        (
            "usage: qmex asym [-h] --kind {sigma-mex,sigma-d-mex,sigma-l} --n N\n"
            "qmex asym: error: argument --n: invalid _positive value: 'x'\n"
        ),
    ),
    (
        ["tauberian", "--t", "0.1"],
        2,
        "",
        (
            "usage: qmex tauberian [-h] --t T --order ORDER\n"
            "qmex tauberian: error: the following arguments are required: --order\n"
        ),
    ),
    (
        ["tauberian", "--t", "x", "--order", "5"],
        2,
        "",
        (
            "usage: qmex tauberian [-h] --t T --order ORDER\n"
            "qmex tauberian: error: argument --t: invalid float value: 'x'\n"
        ),
    ),
    (
        ["tauberian", "--t", "0.1", "--order", "-5"],
        2,
        "",
        (
            "usage: qmex tauberian [-h] --t T --order ORDER\n"
            "qmex tauberian: error: argument --order: must be non-negative, got -5\n"
        ),
    ),
    (
        ["refine", "mex", "--order", "5"],
        2,
        "",
        (
            "usage: qmex refine [-h] --index INDEX --order ORDER [--format {csv,json}]\n"
            "                   {mex,omex,moex,maex}\n"
            "qmex refine: error: the following arguments are required: --index\n"
        ),
    ),
    (
        ["refine", "nope", "--index", "1", "--order", "5"],
        2,
        "",
        (
            "usage: qmex refine [-h] --index INDEX --order ORDER [--format {csv,json}]\n"
            "                   {mex,omex,moex,maex}\n"
            "qmex refine: error: argument kind: invalid choice: 'nope' (choose from 'mex', 'omex', 'moex', 'maex')\n"
        ),
    ),
    (
        ["refine", "mex", "--index", "x", "--order", "5"],
        2,
        "",
        (
            "usage: qmex refine [-h] --index INDEX --order ORDER [--format {csv,json}]\n"
            "                   {mex,omex,moex,maex}\n"
            "qmex refine: error: argument --index: invalid _nonneg value: 'x'\n"
        ),
    ),
    (
        ["refine", "mex", "--index", "1", "--order", "5", "--format", "xml"],
        2,
        "",
        (
            "usage: qmex refine [-h] --index INDEX --order ORDER [--format {csv,json}]\n"
            "                   {mex,omex,moex,maex}\n"
            "qmex refine: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')\n"
        ),
    ),
    (
        ["export", "sigma", "--order", "3"],
        2,
        "",
        (
            "usage: qmex export [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}] --out OUT\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex export: error: the following arguments are required: --out\n"
        ),
    ),
    (
        ["export", "nope", "--order", "3", "--out", "x"],
        2,
        "",
        (
            "usage: qmex export [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}] --out OUT\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex export: error: argument name: invalid choice: 'nope' (choose from 'a', 'chern-sigma-maex', 'distinct', 'sigma-d-maex', 'sigma-l', 'sigma-mex', 'sigma-star', 'a-d', 'sigma', 'sigma-d-mex', 'sigma-d-moex')\n"
        ),
    ),
    (
        ["export", "sigma", "--order", "x", "--out", "x"],
        2,
        "",
        (
            "usage: qmex export [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}] --out OUT\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex export: error: argument --order: invalid _nonneg value: 'x'\n"
        ),
    ),
    (
        ["export", "sigma", "--order", "3", "--format", "xml", "--out", "x"],
        2,
        "",
        (
            "usage: qmex export [-h] --order ORDER [--form {canonical,alt1,alt2}]\n"
            "                   [--format {csv,json}] --out OUT\n"
            "                   {a,chern-sigma-maex,distinct,sigma-d-maex,sigma-l,sigma-mex,sigma-star,a-d,sigma,sigma-d-mex,sigma-d-moex}\n"
            "qmex export: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')\n"
        ),
    ),
]
