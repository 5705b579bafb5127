/**
 * @file
 * Clang Thread Safety Analysis vocabulary (DESIGN.md §10). The
 * macros expand to Clang's capability attributes when the compiler
 * supports them and to nothing elsewhere (GCC builds see plain
 * C++), so the locking rules of every concurrent component are
 * checked at compile time under
 * `-Wthread-safety -Werror=thread-safety` (wired into the
 * STARNUMA_WERROR configuration for Clang) without constraining the
 * production toolchain.
 *
 * libstdc++'s std::mutex is not itself annotated as a capability,
 * so the checked lock types live in sim/sync.hh: starnuma::Mutex
 * (a STARNUMA_CAPABILITY wrapper over std::mutex), the RAII
 * starnuma::MutexLock, and starnuma::CondVar. Annotate data with
 * STARNUMA_GUARDED_BY(mu), functions that must be entered with the
 * lock held with STARNUMA_REQUIRES(mu), and lock-management
 * functions with STARNUMA_ACQUIRE/STARNUMA_RELEASE.
 *
 * This header is the only place in the tree allowed to mention the
 * raw attributes; everything else uses the STARNUMA_* spellings.
 */

#ifndef STARNUMA_SIM_ANNOTATIONS_HH
#define STARNUMA_SIM_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#define STARNUMA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define STARNUMA_THREAD_ANNOTATION(x) // no-op outside Clang
#endif

/** Marks a type as a lockable capability (e.g. a mutex wrapper). */
#define STARNUMA_CAPABILITY(name) \
    STARNUMA_THREAD_ANNOTATION(capability(name))

/** Marks an RAII type that acquires in its ctor, releases in its
 *  dtor (e.g. MutexLock). */
#define STARNUMA_SCOPED_CAPABILITY \
    STARNUMA_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while @p x is held. */
#define STARNUMA_GUARDED_BY(x) \
    STARNUMA_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is guarded by @p x. */
#define STARNUMA_PT_GUARDED_BY(x) \
    STARNUMA_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function that must be called with the capabilities held. */
#define STARNUMA_REQUIRES(...) \
    STARNUMA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function that acquires the capabilities and returns holding
 *  them. */
#define STARNUMA_ACQUIRE(...) \
    STARNUMA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases the capabilities before returning. */
#define STARNUMA_RELEASE(...) \
    STARNUMA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that acquires the capabilities when it returns
 *  @p result. */
#define STARNUMA_TRY_ACQUIRE(result, ...) \
    STARNUMA_THREAD_ANNOTATION( \
        try_acquire_capability(result, __VA_ARGS__))

/** Function that must be called with the capabilities NOT held. */
#define STARNUMA_EXCLUDES(...) \
    STARNUMA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/**
 * Opt a function out of the analysis. Reserved for the rare spot
 * the checker cannot model (none in the tree today); every use must
 * carry a comment explaining why the discipline holds anyway.
 */
#define STARNUMA_NO_THREAD_SAFETY_ANALYSIS \
    STARNUMA_THREAD_ANNOTATION(no_thread_safety_analysis)

/**
 * Outline a rarely-taken slow path (amortized container growth,
 * arena chaining) into its own cold symbol: `cold` moves it out of
 * the hot text and `noinline` keeps its allocation calls out of the
 * caller's symbol, so scripts/check_hotpath_syms.sh can assert at
 * the binary level that the hot-path symbols themselves contain no
 * allocation (DESIGN.md §13). GCC and Clang both support it.
 */
#if defined(__GNUC__) || defined(__clang__)
#define STARNUMA_COLD_PATH __attribute__((cold, noinline))
#else
#define STARNUMA_COLD_PATH
#endif

/**
 * Emit an out-of-line copy of an inline hot-path function in every
 * build type while leaving its callers free to inline it, so
 * scripts/check_hotpath_syms.sh always finds the symbol it audits.
 * Without it an optimizer that inlines every call (Release) leaves
 * the manifest entry matching nothing.
 */
#if defined(__GNUC__) || defined(__clang__)
#define STARNUMA_AUDITED_SYMBOL __attribute__((used))
#else
#define STARNUMA_AUDITED_SYMBOL
#endif

#endif // STARNUMA_SIM_ANNOTATIONS_HH
