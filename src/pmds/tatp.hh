/**
 * @file
 * TATP database for the "update location" transaction (Table 4).
 *
 * The Telecom Application Transaction Processing benchmark's
 * UPDATE_LOCATION transaction looks a subscriber up by number through
 * an index and overwrites its VLR location. We model the subscriber
 * table as fixed 64-byte rows plus a hash index from subscriber
 * number to row id, failure-atomic via undo logging -- the single
 * transaction type the paper evaluates.
 */

#ifndef PMEMSPEC_PMDS_TATP_HH
#define PMEMSPEC_PMDS_TATP_HH

#include <cstdint>

#include "pmds/pm_hashmap.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** The TATP subscriber table + index. */
class TatpDb
{
  public:
    /** Build and populate num_subscribers rows. */
    TatpDb(runtime::PersistentMemory &pm, std::size_t num_subscribers);

    /** PM bytes the constructor allocates (allocBound() sums). */
    static std::size_t footprint(std::size_t num_subscribers);

    /** The UPDATE_LOCATION transaction. @return true if found. */
    bool updateLocation(runtime::Transaction &tx,
                        std::uint64_t sub_nbr,
                        std::uint32_t new_location);

    /** Current VLR location of a subscriber (checker). */
    std::uint32_t location(std::uint64_t s_id) const;

    std::size_t subscribers() const { return count; }

    /** Rows are self-consistent: s_id field matches the row slot. */
    bool checkInvariants() const;

  private:
    // Row layout (64B): [s_id:8][sub_nbr:8][bits:8][hex:8]
    //                   [byte2:8][msc_location:8][vlr_location:8][pad:8]
    static constexpr std::size_t rowBytes = 64;
    /** Undo log of the one-thread runtime that populates the index. */
    static constexpr std::size_t setupLogBytes = 1 << 14;
    static constexpr Addr offSId = 0;
    static constexpr Addr offSubNbr = 8;
    static constexpr Addr offVlrLocation = 48;

    Addr rowAddr(std::uint64_t s_id) const;

    runtime::PersistentMemory &pm;
    Addr rows;
    std::size_t count;
    PmHashmap index; ///< sub_nbr -> s_id
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_TATP_HH
