#!/usr/bin/env python
"""Program VIA at the ISA level: assemble, encode, disassemble, execute.

Section IV-C introduces the instructions as extensions "easily integrated
in the programming model of different Vector ISAs".  This example writes a
small sparse-accumulation routine in VIA assembly, round-trips it through
the 64-bit machine encoding, and executes it on the functional device.

Run:  python examples/assembler_demo.py
"""

from repro.via import (
    Program,
    RegisterFile,
    ViaConfig,
    ViaDevice,
    disassemble_word,
    execute_program,
)

SOURCE = """
# Merge two sparse rows held in registers (a tiny SpMA inner loop):
#   v1/v2 = values/indices of row A
#   v3/v4 = values/indices of row B
vidxclear
vidxload.c v1, v2          # insert row A under its column indices
vidxadd.c  v3, v4, sspm    # row B: matching columns accumulate,
                           # new columns insert in order
vidxcount  v6              # how many result entries?
vidxmov    v7, count=4     # drain the merged row
"""


def main() -> None:
    program = Program.parse(SOURCE)

    print("assembly:")
    for instr, word in zip(program.instructions, program.to_words()):
        print(f"  {word:#018x}  {instr.render()}")

    # binary round-trip: decode the machine words back to assembly
    recovered = Program.from_words(program.to_words())
    assert recovered.instructions == program.instructions
    print("\ndisassembly of the first word:")
    print(" ", disassemble_word(program.to_words()[0]))

    # execute on the functional device
    device = ViaDevice(ViaConfig(4, 2))
    regs = RegisterFile(device.vl)
    regs.write(1, [1.0, 2.0, 3.0, 4.0])   # row A values
    regs.write(2, [10, 20, 30, 40])       # row A columns
    regs.write(3, [5.0, 6.0, 7.0, 8.0])   # row B values
    regs.write(4, [20, 40, 50, 60])       # row B columns
    out = execute_program(program, device, regs)

    print("\nexecution:")
    print(f"  result entries (vidxcount -> v6): {out.scalar(6):.0f}")
    idx, vals = device.drain()
    merged = dict(zip(idx.tolist(), vals.tolist()))
    print(f"  merged row: {merged}")
    assert merged == {10: 1.0, 20: 7.0, 30: 3.0, 40: 10.0, 50: 7.0, 60: 8.0}
    print("  matches the software merge: True")


if __name__ == "__main__":
    main()
