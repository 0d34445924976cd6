/**
 * @file
 * Cache geometry description shared by tag arrays, the directory's
 * DirBDM decode function, and chunk overflow checks. Line size and set
 * count are powers of two (MachineConfig::validate names a violation),
 * so a line address is a shift of a byte address and a set index is a
 * mask of a line address.
 */

#ifndef BULKSC_MEM_CACHE_GEOMETRY_HH
#define BULKSC_MEM_CACHE_GEOMETRY_HH

#include <bit>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace bulksc {

/** Size/associativity/line-size triple describing a cache. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = kDefaultLineBytes;

    std::uint64_t
    numLines() const
    {
        return sizeBytes / lineBytes;
    }

    std::uint64_t
    numSets() const
    {
        return numLines() / assoc;
    }

    /** Set index = line & setMask(). */
    std::uint64_t
    setMask() const
    {
        return numSets() - 1;
    }

    /** Bits of byte offset within a line: line = addr >> lineShift(). */
    unsigned
    lineShift() const
    {
        return static_cast<unsigned>(std::countr_zero(lineBytes));
    }

    void
    validate() const
    {
        fatal_if(!isPowerOf2(lineBytes), "line size must be power of 2");
        fatal_if(!isPowerOf2(numSets()), "set count must be power of 2");
        fatal_if(assoc == 0, "associativity must be non-zero");
    }
};

} // namespace bulksc

#endif // BULKSC_MEM_CACHE_GEOMETRY_HH
