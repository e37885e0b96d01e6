/**
 * @file
 * Tests over the benchmark trace generators: structural
 * well-formedness (balanced FASEs and locks), determinism, and
 * per-benchmark characteristics from Table 4.
 */

#include <gtest/gtest.h>

#include <map>

#include "workloads/workload.hh"

using namespace pmemspec;
using namespace pmemspec::workloads;
using persistency::EventKind;
using persistency::LogicalTrace;

namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numThreads = 2;
    p.opsPerThread = 5;
    p.seed = 123;
    return p;
}

struct TraceShape
{
    std::size_t begins = 0;
    std::size_t ends = 0;
    std::size_t acqs = 0;
    std::size_t rels = 0;
    std::size_t logWrites = 0;
    std::size_t dataStores = 0;
    std::size_t loads = 0;
};

TraceShape
shapeOf(const LogicalTrace &t)
{
    TraceShape s;
    for (const auto &e : t) {
        switch (e.kind) {
          case EventKind::FaseBegin: ++s.begins; break;
          case EventKind::FaseEnd:   ++s.ends; break;
          case EventKind::LockAcq:   ++s.acqs; break;
          case EventKind::LockRel:   ++s.rels; break;
          case EventKind::LogWrite:  ++s.logWrites; break;
          case EventKind::DataStore: ++s.dataStores; break;
          case EventKind::PmLoad:
          case EventKind::PmLoadDep: ++s.loads; break;
          default: break;
        }
    }
    return s;
}

} // namespace

class AllBenchmarks : public ::testing::TestWithParam<BenchId>
{
};

TEST_P(AllBenchmarks, ProducesOneTracePerThread)
{
    auto traces = generateTraces(GetParam(), tinyParams());
    EXPECT_EQ(traces.size(), 2u);
    for (const auto &t : traces)
        EXPECT_FALSE(t.empty());
}

TEST_P(AllBenchmarks, FasesAndLocksAreBalanced)
{
    auto traces = generateTraces(GetParam(), tinyParams());
    for (const auto &t : traces) {
        auto s = shapeOf(t);
        EXPECT_EQ(s.begins, 5u) << benchName(GetParam());
        EXPECT_EQ(s.ends, 5u);
        EXPECT_EQ(s.acqs, s.rels);
    }
}

TEST_P(AllBenchmarks, EveryFaseWritesTheLogBeforeData)
{
    // Within each FASE the first DataStore (if any) must follow a
    // Boundary whenever log writes preceded it.
    auto traces = generateTraces(GetParam(), tinyParams());
    for (const auto &t : traces) {
        bool pending_log = false;
        for (const auto &e : t) {
            switch (e.kind) {
              case EventKind::FaseBegin:
                pending_log = false;
                break;
              case EventKind::LogWrite:
                pending_log = true;
                break;
              case EventKind::Boundary:
                pending_log = false;
                break;
              case EventKind::DataStore:
                ASSERT_FALSE(pending_log)
                    << benchName(GetParam())
                    << ": data store with unordered log writes";
                break;
              default:
                break;
            }
        }
    }
}

TEST_P(AllBenchmarks, DeterministicForAGivenSeed)
{
    auto a = generateTraces(GetParam(), tinyParams());
    auto b = generateTraces(GetParam(), tinyParams());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), b[i].size());
        for (std::size_t j = 0; j < a[i].size(); ++j) {
            ASSERT_EQ(static_cast<int>(a[i][j].kind),
                      static_cast<int>(b[i][j].kind));
            ASSERT_EQ(a[i][j].addr, b[i][j].addr);
            ASSERT_EQ(a[i][j].size, b[i][j].size);
        }
    }
}

TEST_P(AllBenchmarks, ArenaFitsWhatGenerationAllocates)
{
    // Each arena is the undo logs plus the footprints of the
    // structures the benchmark builds. Generation must never run out
    // of it (PersistentMemory::alloc is fatal on "PM arena
    // exhausted"), and it must stay within 2x of what generation
    // allocated, so no fixed slack term can return. TPC-C's arena was
    // once sized at 384 B per order, where a new order allocates
    // 1096 B, and ran out near 7000 FASEs per thread.
    struct Point
    {
        unsigned threads;
        std::uint64_t ops;
    };
    for (const Point pt : {Point{1, 1}, Point{1, 400}, Point{1, 25600},
                           Point{8, 1}, Point{8, 400}, Point{8, 3200},
                           Point{64, 1}, Point{64, 100}}) {
        WorkloadParams p;
        p.numThreads = pt.threads;
        p.opsPerThread = pt.ops;
        ArenaUse arena;
        const auto traces = generateTraces(GetParam(), p, &arena);
        ASSERT_EQ(traces.size(), pt.threads);
        EXPECT_EQ(shapeOf(traces[0]).ends, pt.ops);
        EXPECT_LE(arena.used, arena.bytes);
        EXPECT_LE(arena.bytes, 2 * arena.used)
            << benchName(GetParam()) << " at " << pt.threads
            << " threads x " << pt.ops << " FASEs: arena "
            << arena.bytes << " B, used " << arena.used << " B";
    }
}

TEST_P(AllBenchmarks, SeedsChangeTheTraces)
{
    auto p1 = tinyParams();
    auto p2 = tinyParams();
    p2.seed = 999;
    auto a = generateTraces(GetParam(), p1);
    auto b = generateTraces(GetParam(), p2);
    bool differ = false;
    for (std::size_t i = 0; i < a.size() && !differ; ++i) {
        if (a[i].size() != b[i].size())
            differ = true;
        else
            for (std::size_t j = 0; j < a[i].size(); ++j)
                if (a[i][j].addr != b[i][j].addr) {
                    differ = true;
                    break;
                }
    }
    EXPECT_TRUE(differ) << benchName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Table4, AllBenchmarks,
    ::testing::ValuesIn(allBenchmarks()),
    [](const ::testing::TestParamInfo<BenchId> &info) {
        std::string n = benchName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(Workloads, MicrobenchmarksAreLockFree)
{
    // DPO/HOPS-style partitioned microbenchmarks: no locks, hence
    // (almost) zero inter-thread dependencies (Section 8.4).
    for (BenchId b : {BenchId::ArraySwaps, BenchId::Queue,
                      BenchId::Hashmap, BenchId::RbTree, BenchId::Tatp,
                      BenchId::Tpcc}) {
        auto traces = generateTraces(b, tinyParams());
        for (const auto &t : traces)
            EXPECT_EQ(shapeOf(t).acqs, 0u) << benchName(b);
    }
}

TEST(Workloads, ApplicationsUseCriticalSections)
{
    for (BenchId b : {BenchId::Vacation, BenchId::Memcached}) {
        auto traces = generateTraces(b, tinyParams());
        std::size_t acqs = 0;
        for (const auto &t : traces)
            acqs += shapeOf(t).acqs;
        EXPECT_GT(acqs, 0u) << benchName(b);
    }
}

TEST(Workloads, VacationIsLoadDominant)
{
    auto traces = generateTraces(BenchId::Vacation, tinyParams());
    std::size_t loads = 0, stores = 0;
    for (const auto &t : traces) {
        auto s = shapeOf(t);
        loads += s.loads;
        stores += s.dataStores + s.logWrites;
    }
    EXPECT_GT(loads, stores);
}

TEST(Workloads, MemcachedMovesKilobyteValues)
{
    auto traces = generateTraces(BenchId::Memcached, tinyParams());
    bool saw_kb_access = false;
    for (const auto &t : traces)
        for (const auto &e : t)
            if (e.size == 1024)
                saw_kb_access = true;
    EXPECT_TRUE(saw_kb_access);
}

TEST(Workloads, QueueValuesAre64Bytes)
{
    auto traces = generateTraces(BenchId::Queue, tinyParams());
    bool saw64 = false;
    for (const auto &t : traces)
        for (const auto &e : t)
            if (e.kind == EventKind::DataStore && e.size == 64)
                saw64 = true;
    EXPECT_TRUE(saw64);
}

TEST(Workloads, BenchNamesAreUnique)
{
    std::map<std::string, int> names;
    for (BenchId b : allBenchmarks())
        ++names[benchName(b)];
    EXPECT_EQ(names.size(), 8u);
    for (const auto &[n, count] : names)
        EXPECT_EQ(count, 1) << n;
}
