#ifndef PISO_SIM_CHECKPOINT_HH
#define PISO_SIM_CHECKPOINT_HH

/**
 * @file
 * Versioned binary serialisation for bit-exact checkpoint/restore.
 *
 * A checkpoint image is a strict container:
 *
 *     [magic "PISOCKPT" 8B][version u32][flags u32]
 *     [config digest u64][payload length u64]
 *     [payload bytes][FNV-1a(payload) u64]
 *
 * Every field is fixed-width little-endian, so an image written on one
 * host restores bit-exactly on any other. The reader validates the
 * container — magic, version, config digest, length, checksum — before
 * a single payload byte is interpreted, and every payload read is
 * bounds-checked, so truncated or corrupted images raise a structured
 * ConfigError, never undefined behaviour. Semantic inconsistencies
 * discovered while *applying* a well-formed image (e.g. a pid that the
 * replayed setup never created) are ConfigErrors too.
 *
 * Subsystems name each checkpointed field once, in one member
 * template run by both archives:
 *
 *     template <class Ar>
 *     void serialize(Ar &ar) { ar(count_, last_, entries_); }
 *
 * CkptWriter and CkptReader share one set of field overloads (below),
 * so the save and load paths cannot drift apart. Work that only a
 * restore needs — rebuilding derived lists, resetting event ids,
 * cross-checking counts — lives in the type's public `postLoad()`,
 * which serialises nothing and which the reader calls right after
 * the type's serialize(). The Simulation owns section order and the
 * config digest (docs/checkpoint.md documents the format and the
 * versioning policy).
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/sim/ids.hh"
#include "src/util/time.hh"

namespace piso {

class Process;

/** Image container constants. */
inline constexpr char kCkptMagic[8] = {'P', 'I', 'S', 'O',
                                       'C', 'K', 'P', 'T'};

/** Bump on any payload layout change; old images are rejected. */
inline constexpr std::uint32_t kCkptVersion = 2;

/** FNV-1a 64-bit over @p data (payload checksums, config digests). */
std::uint64_t ckptFnv1a(const std::string &data);

namespace ckpt_detail {

template <class T> struct IsSeq : std::false_type {};
template <class T, class A>
struct IsSeq<std::vector<T, A>> : std::true_type {};
template <class T, class A>
struct IsSeq<std::deque<T, A>> : std::true_type {};
template <class T, class A>
struct IsSeq<std::list<T, A>> : std::true_type {};

template <class T> struct IsMap : std::false_type {};
template <class K, class V, class C, class A>
struct IsMap<std::map<K, V, C, A>> : std::true_type {};

template <class T> struct IsPair : std::false_type {};
template <class A, class B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <class T> struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <class T> struct IsVariant : std::false_type {};
template <class... Ts>
struct IsVariant<std::variant<Ts...>> : std::true_type {};

template <class T> struct IsUniquePtr : std::false_type {};
template <class T, class D>
struct IsUniquePtr<std::unique_ptr<T, D>> : std::true_type {};

/** A DenseTable (src/core/spu_table.hh), recognised by its interface
 *  so this header stays below the core layer. */
template <class T>
concept IdTable = requires(T &t, const T &c) {
    typename T::key_type;
    typename T::mapped_type;
    c.ids();
    t.tryEmplace(typename T::key_type{});
};

} // namespace ckpt_detail

/**
 * Appends fixed-width little-endian fields to an in-memory payload.
 * Also used to build the canonical config serialisation whose hash is
 * the image's config digest.
 */
class CkptWriter
{
  public:
    /** @name Raw fixed-width fields */
    /// @{
    void u8(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    // piso-lint: allow(determinism-wallclock) -- serialises a simulated Time field, not a wallclock read
    void time(Time v) { u64(v); }
    void f64(double v);
    void str(const std::string &v);
    /// @}

    /** Serialise each field in order; field() documents the wire
     *  form of each C++ type. */
    template <class... Ts>
    void
    operator()(const Ts &...fields)
    {
        (field(fields), ...);
    }

  private:
    /**
     * One field, its width chosen by type: bool, enums and 1-byte
     * integers as u8, other unsigned 32-bit integers as u32, other
     * signed integers as i64, other unsigned as u64, double as f64;
     * strings length-prefixed; vector/deque/list/map as a u64 count
     * then each element; pairs, arrays and optionals member-wise (an
     * optional behind a presence byte); variants as a u8 index then
     * the alternative; a DenseTable as its entry count then (u64 id,
     * value) in ascending id order; a `Process *` as its pid (kNoPid
     * for null); any other class through its serialize(Ar&).
     */
    template <class T>
    void
    field(const T &v)
    {
        using namespace ckpt_detail;
        if constexpr (std::is_same_v<T, bool>) {
            boolean(v);
        } else if constexpr (std::is_enum_v<T>) {
            u8(static_cast<std::uint8_t>(v));
        } else if constexpr (std::is_same_v<T, double>) {
            f64(v);
        } else if constexpr (std::is_integral_v<T>) {
            if constexpr (sizeof(T) == 1)
                u8(static_cast<std::uint8_t>(v));
            else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 4)
                u32(v);
            else if constexpr (std::is_signed_v<T>)
                i64(v);
            else
                u64(v);
        } else if constexpr (std::is_same_v<T, std::string>) {
            str(v);
        } else if constexpr (std::is_pointer_v<T>) {
            static_assert(std::is_same_v<std::remove_cv_t<
                                             std::remove_pointer_t<T>>,
                                         Process>,
                          "only Process pointers are serialisable");
            i64(v != nullptr ? v->pid() : kNoPid);
        } else if constexpr (std::is_array_v<T>) {
            for (const auto &e : v)
                field(e);
        } else if constexpr (IsSeq<T>::value || IsMap<T>::value) {
            u64(v.size());
            for (const auto &e : v)
                field(e);
        } else if constexpr (IsPair<T>::value) {
            field(v.first);
            field(v.second);
        } else if constexpr (IsOptional<T>::value) {
            boolean(v.has_value());
            if (v)
                field(*v);
        } else if constexpr (IsVariant<T>::value) {
            u8(static_cast<std::uint8_t>(v.index()));
            std::visit([this](const auto &alt) { field(alt); }, v);
        } else if constexpr (IsUniquePtr<T>::value) {
            field(*v);
        } else if constexpr (IdTable<T>) {
            u64(v.size());
            for (const auto &[id, value] : v) {
                u64(static_cast<std::uint64_t>(id));
                field(value);
            }
        } else {
            // Writing never mutates: serialize(Ar&) is one non-const
            // body shared with the reader.
            const_cast<T &>(v).serialize(*this);
        }
    }

  public:
    /**
     * Members the replayed setup already holds (CPUs, disks, jobs,
     * processes, SPUs): the count, then each member — for a
     * DenseTable each (u64 id, member) — serialised in place, or only
     * the part @p part selects (a member pointer). The reader insists
     * the image names exactly the replayed members.
     */
    template <class Seq, class Part = std::identity>
    void
    fixed(const Seq &members, const char * /* what */, Part part = {})
    {
        u64(members.size());
        if constexpr (ckpt_detail::IdTable<Seq>) {
            for (const auto &[id, m] : members) {
                u64(static_cast<std::uint64_t>(id));
                field(std::invoke(part, m));
            }
        } else {
            for (const auto &m : members)
                field(std::invoke(part, m));
        }
    }

    /** A `Process *` that may be null (an idle CPU): kNoPid stands
     *  for nullptr. Every other process field must resolve. */
    template <class P>
    void
    nullable(P *p)
    {
        field(p);
    }

    /** A value the replayed setup already knows (a process's pid, a
     *  device's presence); the reader checks the image agrees. */
    template <class T>
    void
    match(const T &expected, const char * /* what */)
    {
        field(expected);
    }

    const std::string &payload() const { return payload_; }

    /** Assemble the full image (header + payload + checksum). */
    std::string image(std::uint64_t configDigest) const;

    /** Write the full image to @p out. */
    void emit(std::ostream &out, std::uint64_t configDigest) const;

  private:
    std::string payload_;
};

/**
 * Validating reader over a checkpoint image. Construction parses and
 * checks the container; the field overloads then consume the payload
 * with bounds checks. Any violation throws ConfigError.
 */
class CkptReader
{
  public:
    /** Parse an in-memory image; validates everything up front. */
    explicit CkptReader(const std::string &image);

    /** Slurp @p in to the end and parse it as an image. */
    static CkptReader fromStream(std::istream &in);

    /** Config digest recorded in the header. */
    std::uint64_t configDigest() const { return configDigest_; }

    /** Reject the image unless its digest matches @p expected. */
    void requireDigest(std::uint64_t expected) const;

    /** Resolve the pids of serialised `Process *` fields through
     *  @p byPid (nullptr for an unknown pid, which is rejected). */
    void
    resolveProcesses(std::function<Process *(Pid)> byPid)
    {
        byPid_ = std::move(byPid);
    }

    /** @name Raw fixed-width fields */
    /// @{
    std::uint8_t u8();
    bool boolean() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    // piso-lint: allow(determinism-wallclock) -- deserialises a simulated Time field, not a wallclock read
    Time time() { return u64(); }
    double f64();
    std::string str();
    /// @}

    /** Load each field in order; the mirror of CkptWriter's
     *  operator(). */
    template <class... Ts>
    void
    operator()(Ts &...fields)
    {
        (field(fields), ...);
    }

  private:
    /**
     * One field; the mirror of CkptWriter::field(). Containers are
     * replaced wholesale. Enums are range-checked against
     * `ckptLast(E)` (declare one beside each serialised enum);
     * variant indices against the alternative count; DenseTable ids
     * must ascend and stay below the payload size; `Process *` pids
     * must resolve (see nullable() for the one field that may be
     * null).
     */
    template <class T>
    void
    field(T &v)
    {
        using namespace ckpt_detail;
        if constexpr (std::is_same_v<T, bool>) {
            v = boolean();
        } else if constexpr (std::is_enum_v<T>) {
            const std::uint8_t raw = u8();
            if (raw > static_cast<std::uint8_t>(ckptLast(T{})))
                reject("enum value " + std::to_string(raw) +
                       " out of range");
            v = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, double>) {
            v = f64();
        } else if constexpr (std::is_integral_v<T>) {
            if constexpr (sizeof(T) == 1)
                v = static_cast<T>(u8());
            else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 4)
                v = u32();
            else if constexpr (std::is_signed_v<T>)
                v = static_cast<T>(i64());
            else
                v = static_cast<T>(u64());
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = str();
        } else if constexpr (std::is_pointer_v<T>) {
            static_assert(std::is_same_v<std::remove_pointer_t<T>,
                                         Process>,
                          "only Process pointers are serialisable");
            v = process(static_cast<Pid>(i64()));
        } else if constexpr (std::is_array_v<T>) {
            for (auto &e : v)
                field(e);
        } else if constexpr (IsSeq<T>::value) {
            v.clear();
            const std::uint64_t n = count();
            if constexpr (std::is_same_v<T, std::vector<
                                                typename T::value_type>>)
                v.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i)
                field(v.emplace_back());
        } else if constexpr (IsMap<T>::value) {
            v.clear();
            const std::uint64_t n = count();
            for (std::uint64_t i = 0; i < n; ++i) {
                typename T::key_type key{};
                field(key);
                field(v[key]);
            }
        } else if constexpr (IsPair<T>::value) {
            field(v.first);
            field(v.second);
        } else if constexpr (IsOptional<T>::value) {
            if (boolean())
                field(v.emplace());
            else
                v.reset();
        } else if constexpr (IsVariant<T>::value) {
            const std::uint8_t index = u8();
            if (index >= std::variant_size_v<T>)
                reject("variant index " + std::to_string(index) +
                       " out of range");
            loadAlternative(v, index,
                            std::make_index_sequence<
                                std::variant_size_v<T>>{});
        } else if constexpr (IsUniquePtr<T>::value) {
            field(*v);
        } else if constexpr (IdTable<T>) {
            v.clear();
            const std::uint64_t n = count();
            std::uint64_t next = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                const std::uint64_t id = tableId(next);
                next = id + 1;
                field(v[static_cast<typename T::key_type>(id)]);
            }
        } else {
            v.serialize(*this);
            if constexpr (requires { v.postLoad(); })
                v.postLoad();
        }
    }

  public:
    /** Mirror of CkptWriter::fixed(): the image must carry exactly
     *  the replayed members (same count, same ids), each loaded in
     *  place. */
    template <class Seq, class Part = std::identity>
    void
    fixed(Seq &members, const char *what, Part part = {})
    {
        const std::uint64_t n = u64();
        if (n != members.size()) {
            reject(std::string(what) + " count " + std::to_string(n) +
                   " does not match the replayed configuration (" +
                   std::to_string(members.size()) + ")");
        }
        if constexpr (ckpt_detail::IdTable<Seq>) {
            for (const auto id : members.ids()) {
                if (u64() != static_cast<std::uint64_t>(id))
                    reject(std::string(what) + " ids do not match the "
                           "replayed configuration");
                field(std::invoke(part, members[id]));
            }
        } else {
            for (auto &m : members)
                field(std::invoke(part, m));
        }
    }

    /** Mirror of CkptWriter::nullable(). */
    template <class P>
    void
    nullable(P *&p)
    {
        const auto pid = static_cast<Pid>(i64());
        p = pid == kNoPid ? nullptr : process(pid);
    }

    /** Mirror of CkptWriter::match(): reject the image unless it
     *  carries @p expected. */
    template <class T>
    void
    match(const T &expected, const char *what)
    {
        T got{};
        field(got);
        if (got != expected)
            reject(std::string(what) +
                   " does not match the replayed configuration");
    }

    /** Bytes of payload not yet consumed. */
    std::size_t remaining() const { return payload_.size() - pos_; }

    /** Reject the image unless the payload was consumed exactly. */
    void expectEnd() const;

  private:
    [[noreturn]] static void reject(const std::string &what);

    void need(std::size_t n) const;

    /** A u64 element count; every element takes at least one byte,
     *  so a count beyond the remaining payload is rejected before
     *  anything is allocated. */
    std::uint64_t count();

    /** A DenseTable id: at least @p next (ids ascend) and below the
     *  payload size (every id names an entity the image records), so
     *  a crafted id can neither panic nor size a huge table. */
    std::uint64_t tableId(std::uint64_t next);

    Process *process(Pid pid);

    template <class V, std::size_t... I>
    void
    loadAlternative(V &v, std::size_t index, std::index_sequence<I...>)
    {
        ((index == I ? (field(v.template emplace<I>()), 0) : 0), ...);
    }

    std::string payload_;
    std::size_t pos_ = 0;
    std::uint64_t configDigest_ = 0;
    std::function<Process *(Pid)> byPid_;
};

} // namespace piso

#endif // PISO_SIM_CHECKPOINT_HH
