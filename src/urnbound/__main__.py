import gc

from .cli import main

if __name__ == "__main__":
    code = main()
    # every artifact is closed; skip the collections of interpreter exit
    gc.freeze()
    raise SystemExit(code)
