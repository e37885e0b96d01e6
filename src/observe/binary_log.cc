#include "binary_log.hh"

#include <cstdio>
#include <cstring>

#include "common/crc32.hh"

namespace pmemspec::observe
{

namespace
{

constexpr char kMagic[8] = {'P', 'M', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kCrcBytes = 4;
constexpr std::size_t kEventBytes = 48;

void
put16(std::string &out, std::uint16_t v)
{
    for (int i = 0; i < 2; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
put32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
put64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

class Reader
{
  public:
    Reader(const std::string &data) : buf(data) {}

    bool
    bytes(void *dst, std::size_t n)
    {
        if (pos + n > buf.size())
            return false;
        std::memcpy(dst, buf.data() + pos, n);
        pos += n;
        return true;
    }

    bool
    u8(std::uint8_t &v)
    {
        return bytes(&v, 1);
    }

    bool
    u16(std::uint16_t &v)
    {
        std::uint8_t b[2];
        if (!bytes(b, 2))
            return false;
        v = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        std::uint8_t b[4];
        if (!bytes(b, 4))
            return false;
        v = b[0] | (std::uint32_t{b[1]} << 8) | (std::uint32_t{b[2]} << 16) |
            (std::uint32_t{b[3]} << 24);
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        std::uint32_t lo, hi;
        if (!u32(lo) || !u32(hi))
            return false;
        v = lo | (std::uint64_t{hi} << 32);
        return true;
    }

    bool
    skip(std::size_t n)
    {
        if (pos + n > buf.size())
            return false;
        pos += n;
        return true;
    }

    std::size_t remaining() const { return buf.size() - pos; }

  private:
    const std::string &buf;
    std::size_t pos = 0;
};

} // namespace

bool
writeBinaryTrace(const std::string &path, const trace::Meta &meta,
                 const std::vector<trace::Event> &events,
                 std::uint64_t dropped)
{
    std::string out;
    out.reserve(64 + meta.design.size() + events.size() * kEventBytes);
    out.append(kMagic, sizeof(kMagic));
    put32(out, kVersion);
    put32(out, meta.flags);
    put64(out, meta.specWindow);
    put32(out, meta.specEntries);
    put32(out, meta.numCores);
    out.push_back(meta.specAutomaton ? 1 : 0);
    out.append(7, '\0');
    put32(out, static_cast<std::uint32_t>(meta.design.size()));
    out.append(meta.design);
    put64(out, events.size());
    put64(out, dropped);
    for (const trace::Event &e : events) {
        put64(out, e.tick);
        put64(out, e.seq);
        put64(out, e.addr);
        put64(out, e.arg);
        put32(out, e.specId);
        put32(out, e.core);
        put16(out, e.unit);
        out.push_back(static_cast<char>(e.flagBit));
        out.push_back(static_cast<char>(e.kind));
        out.push_back(static_cast<char>(e.stateBefore));
        out.push_back(static_cast<char>(e.stateAfter));
        out.append(2, '\0');
    }
    put32(out, crc32c(out.data(), out.size()));

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const std::size_t n = std::fwrite(out.data(), 1, out.size(), f);
    const bool ok = n == out.size() && std::fclose(f) == 0;
    if (!ok && n != out.size())
        std::fclose(f);
    return ok;
}

std::optional<BinaryTrace>
readBinaryTrace(const std::string &path, std::string *err)
{
    auto fail = [&](const std::string &why) -> std::optional<BinaryTrace> {
        if (err)
            *err = path + ": " + why;
        return std::nullopt;
    };

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return fail("cannot open");
    std::string data;
    char chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        data.append(chunk, n);
    std::fclose(f);

    Reader r(data);
    char magic[8];
    if (!r.bytes(magic, 8) || std::memcmp(magic, kMagic, 8) != 0)
        return fail("bad magic (not a PMTRACE1 file)");
    std::uint32_t version;
    if (!r.u32(version))
        return fail("truncated header");
    if (version != kVersion)
        return fail("unsupported version " + std::to_string(version) +
                    " (this reader reads version " +
                    std::to_string(kVersion) + ")");
    // The trailing CRC-32C seals every byte before it, so a flipped
    // bit or a cut anywhere is refused before any field is trusted.
    if (r.remaining() < kCrcBytes)
        return fail("truncated header");
    const std::size_t sealed = data.size() - kCrcBytes;
    Reader trailer(data);
    std::uint32_t stored;
    trailer.skip(sealed);
    trailer.u32(stored);
    if (crc32c(data.data(), sealed) != stored)
        return fail("checksum mismatch (corrupt or truncated log)");
    data.resize(sealed);

    BinaryTrace bt;
    std::uint8_t automaton;
    std::uint32_t design_len;
    std::uint64_t event_count;
    if (!r.u32(bt.meta.flags) || !r.u64(bt.meta.specWindow) ||
        !r.u32(bt.meta.specEntries))
        return fail("truncated header");
    std::uint32_t cores;
    if (!r.u32(cores) || !r.u8(automaton) || !r.skip(7) ||
        !r.u32(design_len))
        return fail("truncated header");
    bt.meta.numCores = cores;
    bt.meta.specAutomaton = automaton != 0;
    // Size every buffer from the bytes the file holds, never from a
    // header count alone: a corrupt count must not allocate.
    if (design_len > r.remaining())
        return fail("truncated design name");
    bt.meta.design.resize(design_len);
    r.bytes(bt.meta.design.data(), design_len);
    if (!r.u64(event_count) || !r.u64(bt.dropped))
        return fail("truncated header");
    if (event_count > r.remaining() / kEventBytes)
        return fail("event count exceeds the file size");

    bt.events.resize(event_count);
    for (std::uint64_t i = 0; i < event_count; ++i) {
        trace::Event &e = bt.events[i];
        std::uint8_t kind;
        if (!r.u64(e.tick) || !r.u64(e.seq) || !r.u64(e.addr) ||
            !r.u64(e.arg) || !r.u32(e.specId) || !r.u32(e.core) ||
            !r.u16(e.unit) || !r.u8(e.flagBit) || !r.u8(kind) ||
            !r.u8(e.stateBefore) || !r.u8(e.stateAfter) || !r.skip(2))
            return fail("truncated event record");
        e.kind = static_cast<trace::EventKind>(kind);
    }
    if (r.remaining() != 0)
        return fail("trailing bytes after the last event");
    return bt;
}

} // namespace pmemspec::observe
