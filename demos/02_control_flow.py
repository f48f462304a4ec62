"""
Basic blocks and the control-flow graph
=======================================

Normalized statements are grouped into basic blocks (maximal
straight-line runs) and wired into a control-flow graph. A block
leads a new region whenever something can jump to it: the statement
after a control header, each branch target, and each join point. The
graph gets one synthetic exit block so every route ends somewhere.
"""

from cfgprint import cfg_from_statements, export_dot, normalize_source

SOURCE = """\
declare x;
x = 1;
while (x < 9)
  x = x + 2;
endwhile
if (x > 5)
  output "big";
else
  output "small";
endif
output x;
"""

cfg = cfg_from_statements(normalize_source(SOURCE))

# each block prints its id, the statements it holds, and the blocks
# it can fall or jump to
print("blocks:")
for block in cfg.blocks:
    if block.is_virtual_exit:
        print(f"  b{block.id}: (exit)")
        continue
    texts = " | ".join(st.text for st in block.statements)
    succ = ", ".join(f"b{s}" for s in cfg.successors[block.id])
    print(f"  b{block.id}: {texts}"
          f"\n       -> {succ}")

# a loop end has two successors: back to the header, and onward.
# the if/else diamond shows two one-statement arms joining again.
print("\nedge list:", sorted(cfg.edges))

# export_dot() renders the same structure for Graphviz; paste the
# output into any dot viewer
print("\nDOT output:")
print(export_dot(cfg))
