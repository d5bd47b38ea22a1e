/**
 * @file
 * IPv4-trie application: the table image, packed once with the app,
 * and the NPE32 program.
 */

#include "ipv4_trie.hh"

#include "apps/asmdefs.hh"
#include "isa/assembler.hh"

namespace pb::apps
{

Ipv4TrieApp::Ipv4TrieApp(std::vector<route::RouteEntry> entries)
    : lcTrie(entries), image(lcTrie.packImage(appDataBase, leafBase))
{}

isa::Program
Ipv4TrieApp::setup(sim::Memory &mem) const
{
    mem.writeWords(appDataBase, image);

    std::string src = asmPreamble();
    src += strprintf(".equ TRIE_BASE, 0x%08x\n"
                     ".equ LEAF_BASE, 0x%08x\n",
                     appDataBase, leafBase);
    src += "main:\n";
    src += asmRfc1812Validate();
    // t1 = destination address.  LC-trie lookup:
    src += R"(
        # ---- LC-trie lookup ----
        li   t2, TRIE_BASE
        lw   t3, 0(t2)          # root node word
        srli t4, t3, 20
        andi t4, t4, 0x7f       # pos = skip(root)
trie_walk:
        srli t5, t3, 27         # branch
        beqz t5, trie_leaf
        sll  s0, t1, t4         # addr << pos
        li   at, 32
        sub  at, at, t5
        srl  s0, s0, at         # child index within this node
        li   at, 0xfffff
        and  s1, t3, at         # adr = first child node index
        add  s1, s1, s0
        slli s1, s1, 2
        li   at, TRIE_BASE
        add  s1, s1, at
        lw   t3, 0(s1)          # child node word
        add  t4, t4, t5         # pos += branch
        srli at, t3, 20
        andi at, at, 0x7f
        add  t4, t4, at         # pos += skip(child)
        b    trie_walk
trie_leaf:
        li   at, 0xfffff
        and  s0, t3, at         # leaf index
        slli s0, s0, 4
        li   at, LEAF_BASE
        add  s0, s0, at
        lw   t2, 0(s0)          # key
        lw   t3, 4(s0)          # prefix length
        lw   a1, 8(s0)          # next hop
        beqz t3, check_hop      # /0 matches everything
        li   at, 32
        sub  at, at, t3
        li   s1, -1
        sll  s1, s1, at         # prefix mask
        and  at, t1, s1
        bne  at, t2, drop       # covered by a no-route hole
check_hop:
        li   at, -1
        beq  a1, at, drop       # explicit no-route
)";
    src += asmRfc1812Forward();

    return isa::Assembler(sim::layout::textBase)
        .assemble(src, "ipv4_trie.s");
}

} // namespace pb::apps
