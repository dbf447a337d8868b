"""Help text and usage errors, rendered from the CLI's command table.

riskalign.cli imports this module only for -h/--help or a usage error, so a
command line that parses cleanly never compiles it.
"""

from __future__ import annotations


def usage_text(name: str, message: str | None, commands: dict, top: tuple,
               help_arg: tuple) -> str:
    """Help on the top level (no name) or one command when message is None,
    else the usage line and one "<prog>: error: <message>" line."""
    _, about, args = commands.get(name, top)
    prog = f"riskalign {name}".rstrip()
    words = [_word(arg) for arg in sorted(args, key=lambda arg: arg[0][0] != "-")]
    usage = " ".join([f"usage: {prog} [-h]", *words] + ["..."] * (not name))
    if message is not None:
        return f"{usage}\n{prog}: error: {message}\n"
    rows = [(_word(arg), arg[1] or "") for arg in (help_arg, *args)]
    rows += [(command, spec[1]) for command, spec in commands.items() if not name]
    text = "".join(f"  {word:<23} {line}".rstrip() + "\n" for word, line in rows)
    return f"{usage}\n\n{about}\n\n{text}"


def _word(arg: tuple) -> str:
    """The argument as usage and help show it."""
    name, _, required, choices, default = arg
    if name[0] != "-":
        return "{%s}" % ",".join(choices) if choices else name
    meta = "{%s}" % ",".join(choices) if choices else name[2:].replace("-", "_").upper()
    word = name if default is False else f"{name} {meta}"
    return word if required else f"[{word}]"
