#include "src/core/scheme_profile.hh"

#include <sstream>

#include "src/util/log.hh"

namespace piso {

SchemeProfile::SchemeProfile(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Smp:
        cpu = CpuPolicy::Smp;
        memory = MemoryPolicy::Smp;
        disk = DiskPolicy::HeadPosition;
        net = NetPolicy::Smp;
        return;
      case Scheme::Quota:
        cpu = CpuPolicy::Quota;
        memory = MemoryPolicy::Quota;
        disk = DiskPolicy::BlindFair;
        net = NetPolicy::Quota;
        return;
      case Scheme::PIso:
        return;  // the member defaults are Table 2's PIso column
    }
    PISO_PANIC("unknown scheme ", static_cast<int>(scheme));
}

std::optional<Scheme>
SchemeProfile::asUniform() const
{
    for (Scheme s : {Scheme::Smp, Scheme::Quota, Scheme::PIso}) {
        if (*this == SchemeProfile(s))
            return s;
    }
    return std::nullopt;
}

std::string
SchemeProfile::str() const
{
    std::ostringstream os;
    os << "cpu=" << policyName(cpu) << " memory=" << policyName(memory)
       << " disk_policy=" << policySpecName(disk)
       << " network=" << policyName(net);
    return os.str();
}

const PolicyRegistry &
PolicyRegistry::instance()
{
    static const PolicyRegistry registry;
    return registry;
}

PolicyRegistry::PolicyRegistry()
{
    const auto scheme = [](Scheme s) { return static_cast<int>(s); };
    add(PolicyResource::Scheme, "smp", scheme(Scheme::Smp), true);
    add(PolicyResource::Scheme, "quota", scheme(Scheme::Quota), true);
    add(PolicyResource::Scheme, "quo", scheme(Scheme::Quota), false);
    add(PolicyResource::Scheme, "piso", scheme(Scheme::PIso), true);

    const auto cpu = [](CpuPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Cpu, "smp", cpu(CpuPolicy::Smp), true);
    add(PolicyResource::Cpu, "quota", cpu(CpuPolicy::Quota), true);
    add(PolicyResource::Cpu, "quo", cpu(CpuPolicy::Quota), false);
    add(PolicyResource::Cpu, "piso", cpu(CpuPolicy::PIso), true);

    const auto mem = [](MemoryPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Memory, "smp", mem(MemoryPolicy::Smp), true);
    add(PolicyResource::Memory, "quota", mem(MemoryPolicy::Quota), true);
    add(PolicyResource::Memory, "quo", mem(MemoryPolicy::Quota), false);
    add(PolicyResource::Memory, "piso", mem(MemoryPolicy::PIso), true);

    // Disk keeps the §4.5 names as canonical and accepts the generic
    // smp/quota spellings as aliases, so `scheme=`-style uniformity
    // ("everything quota") can be written per-resource too.
    const auto disk = [](DiskPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Disk, "pos", disk(DiskPolicy::HeadPosition),
        true);
    add(PolicyResource::Disk, "iso", disk(DiskPolicy::BlindFair), true);
    add(PolicyResource::Disk, "piso", disk(DiskPolicy::FairPosition),
        true);
    add(PolicyResource::Disk, "smp", disk(DiskPolicy::HeadPosition),
        false);
    add(PolicyResource::Disk, "quota", disk(DiskPolicy::BlindFair),
        false);
    add(PolicyResource::Disk, "quo", disk(DiskPolicy::BlindFair),
        false);

    const auto net = [](NetPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Net, "smp", net(NetPolicy::Smp), true);
    add(PolicyResource::Net, "quota", net(NetPolicy::Quota), true);
    add(PolicyResource::Net, "quo", net(NetPolicy::Quota), false);
    add(PolicyResource::Net, "piso", net(NetPolicy::PIso), true);
    add(PolicyResource::Net, "fifo", net(NetPolicy::Smp), false);
}

void
PolicyRegistry::add(PolicyResource resource, const std::string &name,
                    int value, bool canonical)
{
    for (const Binding &b : bindings_) {
        if (b.resource == resource && b.name == name)
            PISO_PANIC("policy name '", name, "' registered twice");
    }
    bindings_.push_back(Binding{resource, name, value, canonical});
}

std::optional<int>
PolicyRegistry::tryParse(PolicyResource resource,
                         const std::string &name) const
{
    for (const Binding &b : bindings_) {
        if (b.resource == resource && b.name == name)
            return b.value;
    }
    return std::nullopt;
}

const char *
PolicyRegistry::canonicalName(PolicyResource resource, int value) const
{
    for (const Binding &b : bindings_) {
        if (b.resource == resource && b.value == value && b.canonical)
            return b.name.c_str();
    }
    return "?";
}

std::vector<std::string>
PolicyRegistry::names(PolicyResource resource) const
{
    std::vector<std::string> out;
    for (const Binding &b : bindings_) {
        if (b.resource == resource)
            out.push_back(b.name);
    }
    return out;
}

const char *
policyName(CpuPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Cpu, static_cast<int>(p));
}

const char *
policyName(MemoryPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Memory, static_cast<int>(p));
}

const char *
policyName(NetPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Net, static_cast<int>(p));
}

const char *
policySpecName(DiskPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Disk, static_cast<int>(p));
}

} // namespace piso
