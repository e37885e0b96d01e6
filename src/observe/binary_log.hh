/**
 * @file
 * Compact binary trace log ("PMTRACE1").
 *
 * Layout (all integers little-endian):
 *
 *   char     magic[8]      "PMTRACE1"
 *   u32      version       2
 *   u32      flags         trace flag mask the stream was recorded with
 *   u64      specWindow    speculation window (ticks)
 *   u32      specEntries   speculation buffer capacity
 *   u32      numCores
 *   u8       specAutomaton 1 when the Figure 5 automaton was active
 *   u8       pad[7]
 *   u32      designLen     + that many bytes of design name
 *   u64      eventCount
 *   u64      droppedCount
 *   Event[eventCount]      48 bytes each:
 *     u64 tick, u64 seq, u64 addr, u64 arg,
 *     u32 specId, u32 core, u16 unit,
 *     u8 flagBit, u8 kind, u8 stateBefore, u8 stateAfter, u8 pad[2]
 *   u32      crc           CRC-32C of every byte above
 *
 * This is the lossless format the offline trace checker consumes; the
 * Chrome exporter is for human timelines.
 */

#ifndef PMEMSPEC_OBSERVE_BINARY_LOG_HH
#define PMEMSPEC_OBSERVE_BINARY_LOG_HH

#include <optional>
#include <string>
#include <vector>

#include "common/trace.hh"

namespace pmemspec::observe
{

/** A fully parsed binary trace. */
struct BinaryTrace
{
    trace::Meta meta;
    std::uint64_t dropped = 0;
    std::vector<trace::Event> events;
};

/** Write a binary trace log. @return false on I/O failure. */
bool writeBinaryTrace(const std::string &path, const trace::Meta &meta,
                      const std::vector<trace::Event> &events,
                      std::uint64_t dropped);

/** Read a binary trace log. A log whose checksum does not match, or
 *  whose counts disagree with its size, is refused: returns nullopt
 *  and, when `err` is non-null, stores a diagnostic. */
std::optional<BinaryTrace> readBinaryTrace(const std::string &path,
                                           std::string *err = nullptr);

} // namespace pmemspec::observe

#endif // PMEMSPEC_OBSERVE_BINARY_LOG_HH
