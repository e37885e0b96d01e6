#include "workload.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "pmds/kv_store.hh"
#include "pmds/pm_array.hh"
#include "pmds/pm_hashmap.hh"
#include "pmds/pm_queue.hh"
#include "pmds/pm_rbtree.hh"
#include "pmds/tatp.hh"
#include "pmds/tpcc.hh"
#include "pmds/vacation.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"
#include "workloads/trace_recorder.hh"

namespace pmemspec::workloads
{

using persistency::LogicalTrace;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::Transaction;
using runtime::VirtualOs;

const char *
benchName(BenchId id)
{
    switch (id) {
      case BenchId::ArraySwaps: return "ArraySwaps";
      case BenchId::Queue:      return "Queue";
      case BenchId::Hashmap:    return "Hashmap";
      case BenchId::RbTree:     return "RB-Tree";
      case BenchId::Tatp:       return "TATP";
      case BenchId::Tpcc:       return "TPCC";
      case BenchId::Vacation:   return "Vacation";
      case BenchId::Memcached:  return "Memcached";
    }
    return "unknown";
}

std::vector<BenchId>
allBenchmarks()
{
    return {BenchId::ArraySwaps, BenchId::Queue, BenchId::Hashmap,
            BenchId::RbTree, BenchId::Tatp, BenchId::Tpcc,
            BenchId::Vacation, BenchId::Memcached};
}

bool
benchFromName(const std::string &name, BenchId &out)
{
    for (BenchId b : allBenchmarks()) {
        if (name == benchName(b)) {
            out = b;
            return true;
        }
    }
    return false;
}

namespace
{

/** Shared scaffolding: PM + OS + runtime + recorder. */
struct GenContext
{
    /** Undo-log bytes per thread; the logs come first in the arena,
     *  after its 64 B null guard. */
    static constexpr std::size_t logBytes = 1 << 16;

    /** Arena bytes for the guard, the logs and @p data_bytes. */
    static std::size_t
    arenaBytes(unsigned num_threads, std::size_t data_bytes)
    {
        return 64 + num_threads * logBytes + data_bytes;
    }

    GenContext(std::size_t pm_bytes, unsigned num_threads,
               std::uint64_t seed,
               runtime::LogGranularity granularity =
                   runtime::LogGranularity::Block)
        : pm(pm_bytes),
          rt(pm, os, num_threads, RecoveryPolicy::Lazy, logBytes,
             granularity),
          rng(seed)
    {
    }

    /** Attach the recorder (after setup writes). */
    void
    startRecording(unsigned num_threads)
    {
        pm.persistAll();
        rec = std::make_unique<TraceRecorder>(pm, num_threads);
        for (unsigned t = 0; t < num_threads; ++t) {
            auto [base, len] = rt.logRegion(t);
            rec->addLogRegion(base, len);
        }
    }

    /**
     * One recorded FASE on thread t holding `locks` (must already be
     * sorted ascending and deduplicated).
     */
    void
    fase(unsigned t, const std::vector<unsigned> &locks,
         const FaseRuntime::FaseFn &fn, std::uint64_t think_cycles = 80)
    {
        rec->setThread(t);
        rec->compute(think_cycles);
        rec->faseBegin();
        for (unsigned l : locks)
            rec->lockAcq(l);
        rt.runFase(t, fn);
        rec->faseEnd();
        for (auto it = locks.rbegin(); it != locks.rend(); ++it)
            rec->lockRel(*it);
    }

    PersistentMemory pm;
    VirtualOs os;
    FaseRuntime rt;
    Rng rng;
    std::unique_ptr<TraceRecorder> rec;
};

constexpr unsigned numStripes = 64;

std::vector<LogicalTrace>
genArraySwaps(const WorkloadParams &p)
{
    // As in DPO/HOPS, each thread owns a private array instance:
    // microbenchmark FASEs have (almost) no inter-thread dependency
    // (Section 8.4 cites this as why store misspeculation is rare).
    // The benchmark's total footprint is fixed (the paper scales
    // threads, not data), so per-thread slices shrink with threads.
    const std::size_t elems =
        std::max<std::size_t>(1 << 10, (std::size_t{1} << 17) /
                                           p.numThreads);
    GenContext ctx(p.numThreads * elems * 64 + (16u << 20),
                   p.numThreads, p.seed);
    std::vector<std::unique_ptr<pmds::PmArray>> arrays;
    for (unsigned t = 0; t < p.numThreads; ++t) {
        arrays.push_back(
            std::make_unique<pmds::PmArray>(ctx.pm, elems, 64));
        for (std::size_t i = 0; i < elems; ++i)
            arrays[t]->init(i, i);
    }
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            pmds::PmArray &arr = *arrays[t];
            std::size_t i = ctx.rng.below(elems);
            std::size_t j = ctx.rng.below(elems);
            if (i == j)
                j = (j + 1) % elems;
            ctx.fase(t, {},
                     [&](Transaction &tx) { arr.swap(tx, i, j); });
        }
    }
    return ctx.rec->takeTraces();
}

std::vector<LogicalTrace>
genQueue(const WorkloadParams &p)
{
    // Per-thread queue instances (DPO/HOPS methodology).
    const std::uint64_t total_ops = p.opsPerThread * p.numThreads;
    GenContext ctx(total_ops * 192 + (16u << 20), p.numThreads,
                   p.seed);
    std::vector<std::unique_ptr<pmds::PmQueue>> queues;
    for (unsigned t = 0; t < p.numThreads; ++t)
        queues.push_back(std::make_unique<pmds::PmQueue>(ctx.pm, 64));
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            pmds::PmQueue &q = *queues[t];
            // Bias towards enqueue so the queue stays non-trivial.
            const bool enq = (op + t) % 2 == 0 || ctx.rng.chance(0.1);
            ctx.fase(t, {}, [&](Transaction &tx) {
                if (enq)
                    q.enqueue(tx, op * p.numThreads + t);
                else
                    q.dequeue(tx);
            });
        }
    }
    return ctx.rec->takeTraces();
}

std::vector<LogicalTrace>
genHashmap(const WorkloadParams &p)
{
    // Per-thread hashmap + record-table instances over a fixed
    // total footprint.
    const std::size_t key_space = std::max<std::size_t>(
        1 << 10, (std::size_t{1} << 16) / p.numThreads);
    const std::size_t buckets =
        std::max<std::size_t>(256, key_space / 4);
    GenContext ctx(p.numThreads * key_space * (128 + 64) +
                       (16u << 20),
                   p.numThreads, p.seed);
    struct Inst
    {
        pmds::PmHashmap hm;
        pmds::PmArray records;
    };
    std::vector<std::unique_ptr<Inst>> insts;
    for (unsigned t = 0; t < p.numThreads; ++t) {
        insts.push_back(std::unique_ptr<Inst>(new Inst{
            pmds::PmHashmap(ctx.pm, buckets),
            pmds::PmArray(ctx.pm, key_space, 64)}));
        // Pre-populate half the key space.
        for (std::uint64_t k = 0; k < key_space; k += 2) {
            ctx.rt.runFase(0, [&](Transaction &tx) {
                insts[t]->hm.put(tx, k, k + 1);
            });
        }
    }
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            Inst &in = *insts[t];
            const std::uint64_t key = ctx.rng.below(key_space);
            const bool update = ctx.rng.chance(0.5);
            ctx.fase(t, {}, [&](Transaction &tx) {
                if (update) {
                    in.hm.put(tx, key, op);
                    // The paper's FASEs move 64B of data: update the
                    // key's record row alongside the index.
                    std::uint8_t row[64];
                    std::memset(row, static_cast<int>(op & 0xff),
                                sizeof(row));
                    tx.write(in.records.elemAddr(key), row,
                             sizeof(row));
                } else {
                    auto v = in.hm.get(tx, key);
                    if (v) {
                        std::uint8_t row[64];
                        tx.read(in.records.elemAddr(key), row,
                                sizeof(row));
                    }
                }
            });
        }
    }
    return ctx.rec->takeTraces();
}

std::vector<LogicalTrace>
genRbTree(const WorkloadParams &p)
{
    // Per-thread red-black tree instances over a fixed total
    // footprint.
    const std::uint64_t key_space = std::max<std::uint64_t>(
        1 << 9, (std::uint64_t{1} << 15) / p.numThreads);
    const std::uint64_t total_ops = p.opsPerThread * p.numThreads;
    GenContext ctx(p.numThreads * key_space * 128 + total_ops * 128 +
                       (16u << 20),
                   p.numThreads, p.seed);
    std::vector<std::unique_ptr<pmds::PmRbTree>> trees;
    for (unsigned t = 0; t < p.numThreads; ++t) {
        trees.push_back(std::make_unique<pmds::PmRbTree>(ctx.pm));
        for (std::uint64_t k = 1; k < key_space; k += 2) {
            ctx.rt.runFase(0, [&](Transaction &tx) {
                trees[t]->insert(tx, k, k);
            });
        }
    }
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            pmds::PmRbTree &tree = *trees[t];
            const std::uint64_t key = 1 + ctx.rng.below(key_space);
            const bool ins = ctx.rng.chance(0.5);
            ctx.fase(t, {}, [&](Transaction &tx) {
                if (ins)
                    tree.insert(tx, key, op);
                else
                    tree.erase(tx, key);
            });
        }
    }
    return ctx.rec->takeTraces();
}

std::vector<LogicalTrace>
genTatp(const WorkloadParams &p)
{
    // One shared subscriber table; each thread updates a disjoint
    // subscriber range (rows are one cache block each, so the
    // partitioning is race-free without locks). The index is only
    // read during the measured phase.
    const std::size_t subscribers = 65536;
    GenContext ctx(subscribers * 256 + (32u << 20), p.numThreads,
                   p.seed);
    pmds::TatpDb db(ctx.pm, subscribers);
    ctx.startRecording(p.numThreads);

    const std::size_t per_thread = subscribers / p.numThreads;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t s_id =
                t * per_thread + ctx.rng.below(per_thread);
            const std::uint64_t sub_nbr =
                s_id * 2654435761ULL % (1ULL << 40);
            const auto loc =
                static_cast<std::uint32_t>(ctx.rng.next());
            ctx.fase(t, {}, [&](Transaction &tx) {
                db.updateLocation(tx, sub_nbr, loc);
            }, 150);
        }
    }
    return ctx.rec->takeTraces();
}

std::vector<LogicalTrace>
genTpcc(const WorkloadParams &p)
{
    // Terminal-per-district, as in TPC-C: thread t drives district
    // t (districts >= threads), and line items are drawn from a
    // per-district item partition so new-order transactions from
    // different terminals never conflict (microbenchmark style).
    pmds::TpccConfig tc;
    tc.districts = std::max(10u, p.numThreads);
    tc.maxOrders = static_cast<unsigned>(
        tc.districts * (p.opsPerThread + 64));
    GenContext ctx(GenContext::arenaBytes(p.numThreads,
                                          pmds::TpccDb::footprint(tc)),
                   p.numThreads, p.seed);
    pmds::TpccDb db(ctx.pm, tc);
    ctx.startRecording(p.numThreads);

    const unsigned items_per_d = tc.items / tc.districts;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const unsigned district = t;
            const unsigned customer = static_cast<unsigned>(
                ctx.rng.below(tc.customersPerDistrict));
            const unsigned n =
                static_cast<unsigned>(ctx.rng.range(5, 15));
            std::vector<pmds::OrderLineReq> lines(n);
            for (auto &l : lines) {
                l.itemId = district * items_per_d +
                           static_cast<std::uint32_t>(
                               ctx.rng.below(items_per_d));
                l.quantity =
                    static_cast<std::uint32_t>(ctx.rng.range(1, 10));
            }
            ctx.fase(t, {}, [&](Transaction &tx) {
                db.newOrder(tx, district, customer, lines);
            }, 300);
        }
    }
    return ctx.rec->takeTraces();
}

std::vector<LogicalTrace>
genVacation(const WorkloadParams &p)
{
    pmds::VacationConfig vc;
    vc.resourcesPerTable = 1 << 13;
    vc.customers = 4096;
    vc.numQueries = 8;
    vc.partitionsPerTable = 16;
    const std::uint64_t total_ops = p.opsPerThread * p.numThreads;
    const std::size_t pm_bytes =
        vc.resourcesPerTable * 3 * 128 + total_ops * 64 + (48u << 20);
    GenContext ctx(pm_bytes, p.numThreads, p.seed,
                   runtime::LogGranularity::Word);
    pmds::VacationDb db(ctx.pm, vc);
    ctx.startRecording(p.numThreads);

    // Lock ids: partition locks are kind*P+part (0..47); customer
    // stripes start at 100 (eight heads share a block, so stripe by
    // block for block-level DRF).
    constexpr unsigned cust_lock_base = 100;
    const unsigned P = vc.partitionsPerTable;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t customer =
                ctx.rng.below(vc.customers);
            const auto cust_stripe = static_cast<unsigned>(
                cust_lock_base + (customer / 8) % numStripes);
            const auto kind =
                static_cast<pmds::ResourceKind>(ctx.rng.below(3));
            const unsigned kind_base =
                static_cast<unsigned>(kind) * P;
            if (ctx.rng.chance(0.9)) {
                // MAKE_RESERVATION over numQueries candidates.
                std::vector<std::uint64_t> cands(vc.numQueries);
                std::vector<unsigned> locks{cust_stripe};
                for (auto &id : cands) {
                    id = ctx.rng.below(vc.resourcesPerTable);
                    locks.push_back(kind_base + db.partitionOf(id));
                }
                std::sort(locks.begin(), locks.end());
                locks.erase(std::unique(locks.begin(), locks.end()),
                            locks.end());
                ctx.fase(t, locks, [&](Transaction &tx) {
                    db.makeReservation(tx, kind, cands, customer);
                }, 400);
            } else {
                // UPDATE_TABLES: reprice one resource.
                const std::uint64_t id =
                    ctx.rng.below(vc.resourcesPerTable);
                const auto price = static_cast<std::uint32_t>(
                    50 + ctx.rng.below(800));
                ctx.fase(t, {kind_base + db.partitionOf(id)},
                         [&](Transaction &tx) {
                             db.updateTables(tx, kind, id, price);
                         },
                         200);
            }
        }
    }
    return ctx.rec->takeTraces();
}

std::vector<LogicalTrace>
genMemcached(const WorkloadParams &p)
{
    pmds::KvConfig kc;
    kc.buckets = 1 << 13;
    kc.valueBytes = 1024; // paper: memcached data size is 1024B
    const std::size_t key_space = 1 << 13;
    const std::size_t pm_bytes =
        key_space * (1024 + 256) + (32u << 20);
    // Mnemosyne-style word-granular logging, as in the real port.
    GenContext ctx(pm_bytes, p.numThreads, p.seed,
                   runtime::LogGranularity::Word);
    pmds::KvStore kv(ctx.pm, kc);
    // Pre-populate the store.
    for (std::uint64_t k = 0; k < key_space; ++k) {
        ctx.rt.runFase(0, [&](Transaction &tx) {
            kv.set(tx, k, static_cast<std::uint8_t>(k));
        });
    }
    ctx.startRecording(p.numThreads);

    // memcached's global cache lock serialises item and LRU updates.
    const unsigned cache_lock = 0;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t key = ctx.rng.below(key_space);
            const bool is_set = ctx.rng.chance(0.5);
            ctx.fase(t, {cache_lock}, [&](Transaction &tx) {
                if (is_set)
                    kv.set(tx, key,
                           static_cast<std::uint8_t>(op & 0xff));
                else
                    kv.get(tx, key);
            }, 250);
        }
    }
    return ctx.rec->takeTraces();
}

} // namespace

std::vector<LogicalTrace>
generateTraces(BenchId id, const WorkloadParams &params)
{
    fatal_if(params.numThreads == 0 || params.opsPerThread == 0,
             "bad workload params");
    switch (id) {
      case BenchId::ArraySwaps: return genArraySwaps(params);
      case BenchId::Queue:      return genQueue(params);
      case BenchId::Hashmap:    return genHashmap(params);
      case BenchId::RbTree:     return genRbTree(params);
      case BenchId::Tatp:       return genTatp(params);
      case BenchId::Tpcc:       return genTpcc(params);
      case BenchId::Vacation:   return genVacation(params);
      case BenchId::Memcached:  return genMemcached(params);
    }
    panic("unknown benchmark id");
}

} // namespace pmemspec::workloads
