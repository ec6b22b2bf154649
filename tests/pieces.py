"""Int streams as enumeration.value_segments' pieces, to inject faults into the window reports."""


def pieces_of(stream):
    """Each value of `stream`, in order, as a one-candidate piece (range(v, v + 1), b"\\x01")."""
    return ((range(v, v + 1), b"\x01") for v in stream)
