/**
 * @file
 * Per-packet accounting implementation.
 */

#include "accounting.hh"

#include "isa/inst.hh"
#include "sim/memmap.hh"

namespace pb::sim
{

namespace
{

/** Regions with a touch map, in touchPages() span order. */
constexpr MemRegion trackedRegions[] = {MemRegion::Data, MemRegion::Packet,
                                        MemRegion::Stack};

/** Bytes of the one-bit-per-byte map of @p region, in whole words. */
constexpr size_t
touchMapBytes(MemRegion region)
{
    const size_t size = layout::regionSize[static_cast<size_t>(region)];
    return (size + 63) / 64 * sizeof(uint64_t);
}

} // namespace

PacketRecorder::PacketRecorder(const isa::Program &prog,
                               const BlockMap &blocks, RecorderConfig cfg_)
    : cfg(cfg_),
      progBase(prog.baseAddr),
      progWords(static_cast<uint32_t>(prog.words.size())),
      blockMap(blocks),
      touchPages_({touchMapBytes(trackedRegions[0]),
                   touchMapBytes(trackedRegions[1]),
                   touchMapBytes(trackedRegions[2])})
{
    slotClass.resize(progWords);
    runLast.resize(progWords);
    heads.resize(progWords);
    cover.resize(progWords);
    for (uint32_t i = 0; i < progWords; i++) {
        runLast[i] = i;
        cover[i].everFrom = i + 1;
    }
    wordEpoch.assign(progWords, 0);
    blockEpoch.assign(blockMap.numBlocks(), 0);
    wordTouched.assign(progWords, false);
    for (size_t span = 0; span < std::size(trackedRegions); span++) {
        const auto r = static_cast<size_t>(trackedRegions[span]);
        touch[r].base = layout::regionBase[r];
        touch[r].size = layout::regionSize[r];
        touch[r].bits = static_cast<uint64_t *>(touchPages_.span(span));
    }
}

void
PacketRecorder::TouchMap::markBytes(uint32_t off, uint32_t len)
{
    for (uint32_t i = 0; i < len; i++) {
        const uint32_t byte = off + i;
        const uint64_t bit = uint64_t{1} << (byte % 64);
        if (byte < size && !(bits[byte / 64] & bit)) {
            bits[byte / 64] |= bit;
            count++;
        }
    }
}

void
PacketRecorder::traceAccess(const MemAccessEvent &event,
                            uint64_t instIndex)
{
    current.memTrace.push_back({instIndex, event});
}

void
PacketRecorder::traceRun(uint32_t slot, uint32_t n)
{
    for (uint32_t w = slot; w < slot + n; w++)
        current.instTrace.push_back(progBase + w * 4);
}

void
PacketRecorder::stampWord(uint32_t word)
{
    if (wordEpoch[word] == epoch)
        return;
    // Words of this packet's covers are charged already (coverRun);
    // only a word some whole run has shown can be in one.
    const RunCover &c = cover[runLast[word]];
    if (c.epoch == epoch && word >= c.from)
        return;
    wordEpoch[word] = epoch;
    wordStamps = true;
    current.uniqueInstCount++;
    // A word's first-ever execution is always also its first
    // execution within some packet, so the run-level instruction
    // footprint only needs checking where a packet first charges a
    // word: here and in coverRun().
    touchWord(word);
    if (cfg.blockSets) {
        uint32_t block = blockMap.blockOf(progBase + word * 4);
        if (blockEpoch[block] != epoch) {
            blockEpoch[block] = epoch;
            current.blocks.push_back(block);
        }
    }
}

void
PacketRecorder::chargePrefix(const isa::Inst *run, uint32_t slot,
                             uint32_t n)
{
    for (uint32_t i = 0; i < n; i++) {
        classCounts_[static_cast<size_t>(isa::opInfo(run[i].op).cls)]++;
        if (slot + i < progWords)
            stampWord(slot + i);
    }
}

void
PacketRecorder::learnRun(const isa::Inst *run, uint32_t slot,
                         uint32_t len)
{
    for (uint32_t i = 0; i < len; i++) {
        slotClass[slot + i] = isa::opInfo(run[i].op).cls;
        runLast[slot + i] = slot + len - 1;
    }
}

void
PacketRecorder::coverRun(uint32_t slot)
{
    heads[slot].epoch = epoch;
    const uint32_t last = runLast[slot];
    RunCover &c = cover[last];
    const uint32_t covered = c.epoch == epoch ? c.from : last + 1;
    if (slot >= covered)
        return;
    if (wordStamps || cfg.blockSets) {
        // Skips words already stamped one by one, and lists blocks
        // in the order their instructions executed.
        for (uint32_t w = slot; w < covered; w++)
            stampWord(w);
    } else {
        current.uniqueInstCount += covered - slot;
        for (uint32_t w = slot; w < c.everFrom; w++)
            touchWord(w);
    }
    c.epoch = epoch;
    c.from = slot;
    c.everFrom = std::min(c.everFrom, slot);
}

void
PacketRecorder::beginPacket()
{
    if (inPacket)
        panic("PacketRecorder::beginPacket: packet already open");
    inPacket = true;
    epoch++;
    wordStamps = false;
    current = PacketStats{};
    for (auto &counts : accesses)
        counts[0] = counts[1] = 0;
}

PacketStats
PacketRecorder::endPacket()
{
    if (!inPacket)
        panic("PacketRecorder::endPacket: no packet open");
    inPacket = false;
    // Reads of constants embedded in text count as non-packet.
    for (size_t r = 0; r < numMemRegions; r++) {
        const bool packet = r == static_cast<size_t>(MemRegion::Packet);
        (packet ? current.packetReads : current.nonPacketReads) +=
            accesses[r][0];
        (packet ? current.packetWrites : current.nonPacketWrites) +=
            accesses[r][1];
    }
    return std::move(current);
}

uint64_t
PacketRecorder::instMemoryBytes() const
{
    // Fetches are aligned 4-byte spans, so distinct executed words
    // map one-to-one onto touched instruction bytes.
    return wordsTouched_ * 4;
}

std::array<uint64_t, numInstClasses>
PacketRecorder::classCounts() const
{
    // A whole run from slot s executes every slot from s to its last,
    // so a slot's executions are the whole runs from the heads at or
    // before it within its straight-line run.
    std::array<uint64_t, numInstClasses> mix = classCounts_;
    uint64_t execs = 0;
    for (uint32_t w = 0; w < progWords; w++) {
        execs += heads[w].runs;
        mix[static_cast<size_t>(slotClass[w])] += execs;
        if (runLast[w] == w)
            execs = 0;
    }
    return mix;
}

uint64_t
PacketRecorder::dataMemoryBytes() const
{
    uint64_t bytes = 0;
    for (const TouchMap &map : touch)
        bytes += map.count;
    return bytes;
}

} // namespace pb::sim
