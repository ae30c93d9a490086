"""`python -m idealfunc ...`: the command-line interface of `idealfunc.cli`."""

from .cli import console_main

console_main()
