// Clang thread-safety annotation macros — the compile-time leg of the
// project's concurrency contracts (tools/lint_invariants.py is the lint-time
// leg).
//
// Under Clang these expand to the thread-safety-analysis attributes, so a
// `clang++ -Wthread-safety -Werror` build (CI's `static-analysis` job)
// proves, before any thread runs, that every access to a BYOM_GUARDED_BY
// member happens while its capability (mutex) is held. Under GCC and every
// other compiler they expand to nothing: annotations never change codegen,
// only what the analysis is allowed to reject.
//
// Use the byom::common::Mutex / MutexLock / CondVar wrappers (common/mutex.h)
// rather than std::mutex in annotated files — the analysis only understands
// types that carry these attributes (the invariant linter's `raw-mutex` rule
// enforces this).
#pragma once

#if defined(__clang__)
#define BYOM_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define BYOM_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

// Declares a type to be a capability (a lock). Example:
//   class BYOM_CAPABILITY("mutex") Mutex { ... };
#define BYOM_CAPABILITY(x) BYOM_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// Declares an RAII type whose constructor acquires and destructor releases a
// capability (MutexLock).
#define BYOM_SCOPED_CAPABILITY \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// The annotated member may only be read or written while holding `x`.
#define BYOM_GUARDED_BY(x) BYOM_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// The annotated pointer's *pointee* may only be accessed while holding `x`.
#define BYOM_PT_GUARDED_BY(x) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// The annotated function may only be called while holding the listed
// capabilities.
#define BYOM_REQUIRES(...) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

// The annotated function acquires / releases the listed capabilities.
#define BYOM_ACQUIRE(...) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define BYOM_RELEASE(...) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

// The annotated function acquires the capability when it returns the given
// value (true for std::mutex-style try_lock).
#define BYOM_TRY_ACQUIRE(...) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

// The annotated function must NOT be called while holding the listed
// capabilities (deadlock prevention on re-entrant paths).
#define BYOM_EXCLUDES(...) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// Tells the analysis the capability is known to be held at this point
// (runtime-checked handoffs the static analysis cannot follow).
#define BYOM_ASSERT_CAPABILITY(x) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

// The annotated function returns a reference to the given capability.
#define BYOM_RETURN_CAPABILITY(x) \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// Escape hatch: the function's locking discipline is correct but not
// expressible (lock handoffs across functions, adopt-lock tricks). Use
// sparingly and always with a comment saying why.
#define BYOM_NO_THREAD_SAFETY_ANALYSIS \
  BYOM_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Documentation marker (expands to nothing on every compiler). Clang's
// analysis has no vocabulary for this discipline, so the contract is
// recorded where the data lives and enforced by TSan/tests instead.

// The annotated member/class is not internally synchronized: exactly one
// thread may use it at a time (the virtual-time subsystems — sim::SimClock,
// core::StalenessSchedule — are single-threaded by design; each simulation
// cell owns its own instances).
#define BYOM_EXTERNALLY_SYNCHRONIZED
