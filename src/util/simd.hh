/**
 * @file
 * SIMD-friendly batch kernels for the prepared-trace hot loop.
 *
 * The replay inner loop spends its time in two places: decoding the
 * packed type+flags byte of every reference and probing the per-block
 * FlatMap.  Both are batchable.  This header supplies the batch
 * primitives:
 *
 *  - decodeTypes(): strip the flag bits off a whole run of packed
 *    bytes at once (a pure byte-wise AND), so the per-reference
 *    dispatch reads a clean 0/1/2 type lane instead of re-masking.
 *    Backends: AVX2 and NEON intrinsics where the compiler targets
 *    them, otherwise a SWAR kernel over eight bytes at a time that
 *    GCC/Clang auto-vectorise under any baseline ISA.  The bytewise
 *    reference decodeTypesScalar() is always compiled, so differential
 *    tests can pin every backend against it.
 *
 *  - classifyCounts(): branchless read/write/lock lane counts for a
 *    strip, used by diagnostics and tests (the engines consume the
 *    type lane directly).
 *
 *  - prefetchRead(): the software-prefetch hint the engines issue a
 *    few references ahead of the FlatMap probe.
 *
 *  - AlignedVector: 64-byte-aligned column storage, so vector loads
 *    over the prepared columns never split a cache line.  Sized
 *    construction default-initialises (no zero-fill pass).
 *
 * Backend selection is compile-time only: -DDIRSIM_SIMD_SCALAR (CMake
 * option DIRSIM_SIMD_SCALAR) forces the SWAR kernel even when AVX2 or
 * NEON is available, which CI uses to exercise the fallback under the
 * sanitizers.  All kernels tolerate unaligned and zero-length input;
 * alignment only affects speed, never correctness.
 */

#ifndef DIRSIM_UTIL_SIMD_HH
#define DIRSIM_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>

#if !defined(DIRSIM_SIMD_SCALAR)
#if defined(__AVX2__)
#define DIRSIM_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON)
#define DIRSIM_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace dirsim::util
{

/** Alignment unit for column storage and strip buffers. */
constexpr std::size_t kCacheLineBytes = 64;

/**
 * References classified per strip before dispatch.  The strip's type
 * lane (1 byte/ref) plus the columns it shadows (6 bytes/ref) must
 * stay L1-resident while the engine walks it; 4K refs ≈ 28 KiB.
 */
constexpr std::size_t kClassifyStripRefs = 4096;

/**
 * How many references ahead of the dispatch point the engines
 * prefetch their block-table probe.  Far enough to cover a memory
 * access, near enough that the line is still resident when used.
 */
constexpr std::size_t kPrefetchDistance = 8;

/** The packed byte's type field: low two bits.  Mirrors
 *  trace::packedTypeMask (static_assert'd at the trace layer — util
 *  cannot include trace headers without inverting the layering). */
constexpr std::uint8_t kTypeLaneMask = 0x03;

/**
 * Column allocations of at least this many bytes are mapped straight
 * from the kernel (page-aligned, so cache-line-aligned too) and
 * unmapped on free.  A multi-megabyte trace column then never passes
 * through malloc: freeing it returns its pages to the OS at once
 * instead of leaving a hole in a malloc arena, and it does not raise
 * glibc's dynamic mmap threshold, which would push later large
 * allocations into arenas.  Concurrent trace builds and replays would
 * otherwise grow peak RSS through that fragmentation alone.
 */
constexpr std::size_t kDirectMapBytes = std::size_t(1) << 20;

/**
 * Minimal 64-byte-aligning allocator.  std::allocator only guarantees
 * alignof(std::max_align_t) (16 on x86-64); the prepared columns want
 * cache-line alignment so a 64-byte vector load never splits lines.
 * Large columns are mapped directly (kDirectMapBytes).
 */
template <typename T>
struct AlignedAllocator
{
    using value_type = T;
    static constexpr std::align_val_t alignment{kCacheLineBytes};

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes >= kDirectMapBytes) {
            void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            return static_cast<T *>(p);
        }
        return static_cast<T *>(::operator new(bytes, alignment));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes >= kDirectMapBytes)
            ::munmap(p, bytes);
        else
            ::operator delete(p, alignment);
    }

    /**
     * Default-initialise: a sized construction or resize(n) leaves
     * trivial elements unwritten, so a column that is filled before
     * it is read never pays a zero-fill pass (nor makes every page
     * resident up front).  Ask for a value explicitly — resize(n, 0)
     * — where the elements are read before they are written.
     */
    template <typename U>
    void
    construct(U *p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** Cache-line-aligned vector: drop-in column storage. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/** Hint that @p p will be read soon (no-op where unsupported). */
inline void
prefetchRead(const void *p)
{
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
}

/**
 * Reference kernel: types[i] = packed[i] & kTypeLaneMask, one byte at
 * a time.  Deliberately the dumbest possible loop — every optimised
 * backend is differentially tested against it.
 */
inline void
decodeTypesScalar(const std::uint8_t *packed, std::uint8_t *types,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        types[i] = static_cast<std::uint8_t>(packed[i] & kTypeLaneMask);
}

/**
 * Decode the type lane for @p n packed bytes: types[i] = packed[i] &
 * kTypeLaneMask.  Input and output may be unaligned; they must not
 * overlap.
 */
inline void
decodeTypes(const std::uint8_t *packed, std::uint8_t *types,
            std::size_t n)
{
    std::size_t i = 0;
#if defined(DIRSIM_SIMD_AVX2)
    const __m256i mask = _mm256_set1_epi8(char(kTypeLaneMask));
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(packed + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(types + i),
                            _mm256_and_si256(v, mask));
    }
#elif defined(DIRSIM_SIMD_NEON)
    const uint8x16_t mask = vdupq_n_u8(kTypeLaneMask);
    for (; i + 16 <= n; i += 16)
        vst1q_u8(types + i, vandq_u8(vld1q_u8(packed + i), mask));
#else
    // SWAR: eight lanes per u64 op; memcpy compiles to plain loads and
    // stores, and the loop auto-vectorises under any baseline ISA.
    constexpr std::uint64_t laneMask = 0x0101010101010101ULL *
                                       kTypeLaneMask;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, packed + i, 8);
        w &= laneMask;
        std::memcpy(types + i, &w, 8);
    }
#endif
    decodeTypesScalar(packed + i, types + i, n - i);
}

/** Per-strip reference classification (see classifyCounts). */
struct LaneCounts
{
    std::uint64_t reads = 0;  //!< Type field == RefType::Read.
    std::uint64_t writes = 0; //!< Type field == RefType::Write.
    /** References with any lock flag (test or write) set. */
    std::uint64_t locks = 0;

    bool operator==(const LaneCounts &) const = default;
};

/** Reference kernel for classifyCounts(): obviously-correct bytewise
 *  loop the optimised version is differentially tested against. */
inline LaneCounts
classifyCountsScalar(const std::uint8_t *packed, std::size_t n,
                     std::uint8_t lockFlagsMask)
{
    LaneCounts c;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t type = packed[i] & kTypeLaneMask;
        c.reads += type == 1;
        c.writes += type == 2;
        c.locks += (packed[i] & lockFlagsMask) != 0;
    }
    return c;
}

/**
 * Count the read/write/lock lanes of @p n packed bytes in one
 * branchless sweep.  @p lockFlagsMask selects the packed bits that
 * mark a lock reference (pass trace::packTypeFlags' encoding of
 * FlagLockTest|FlagLockWrite).
 */
inline LaneCounts
classifyCounts(const std::uint8_t *packed, std::size_t n,
               std::uint8_t lockFlagsMask)
{
    LaneCounts c;
    std::size_t i = 0;
#if defined(DIRSIM_SIMD_AVX2)
    const __m256i typeMask = _mm256_set1_epi8(char(kTypeLaneMask));
    const __m256i lockMask = _mm256_set1_epi8(char(lockFlagsMask));
    const __m256i one = _mm256_set1_epi8(1);
    const __m256i two = _mm256_set1_epi8(2);
    const __m256i zero = _mm256_setzero_si256();
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(packed + i));
        const __m256i type = _mm256_and_si256(v, typeMask);
        c.reads += unsigned(__builtin_popcount(unsigned(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(type, one)))));
        c.writes += unsigned(__builtin_popcount(unsigned(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(type, two)))));
        const __m256i lock = _mm256_and_si256(v, lockMask);
        c.locks += 32u - unsigned(__builtin_popcount(unsigned(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(lock, zero)))));
    }
#endif
    const LaneCounts tail =
        classifyCountsScalar(packed + i, n - i, lockFlagsMask);
    c.reads += tail.reads;
    c.writes += tail.writes;
    c.locks += tail.locks;
    return c;
}

/** Compile-time selected kernel backend, for logs and bench JSON. */
inline const char *
simdBackendName()
{
#if defined(DIRSIM_SIMD_AVX2)
    return "avx2";
#elif defined(DIRSIM_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

} // namespace dirsim::util

#endif // DIRSIM_UTIL_SIMD_HH
