#include "src/exp/experiment.hh"

#include <sstream>

#include "src/util/log.hh"

namespace piso::exp {

namespace {

/**
 * A grid-only key that adds one fault to the plan. Fault axes append
 * to the plan's fault schedule, so a grid can sweep what-if failure
 * scenarios over one base workload. Grid points differing only in
 * their late faults share the pre-fault prefix, which is exactly what
 * the warm-start engine checkpoints once per group. The value is
 * `fields` colon-separated numbers shaped like `shape`, or "none" (no
 * fault, so an axis can include the undisturbed baseline).
 */
struct FaultKey
{
    const char *name;
    const char *shape;
    std::size_t fields;
    std::size_t diskField;  //!< index of the DISK field
    void (*add)(FaultPlan &, const std::vector<double> &);
};

const FaultKey kFaultKeys[] = {
    {"fault_disk_slow", "AT_S:FOR_S:DISK:FACTOR", 4, 2,
     [](FaultPlan &p, const std::vector<double> &f) {
         p.diskSlow(fromSeconds(f[0]), static_cast<int>(f[2]),
                    fromSeconds(f[1]), f[3]);
     }},
    {"fault_disk_error", "AT_S:FOR_S:DISK:RATE", 4, 2,
     [](FaultPlan &p, const std::vector<double> &f) {
         p.diskError(fromSeconds(f[0]), static_cast<int>(f[2]),
                     fromSeconds(f[1]), f[3]);
     }},
    {"fault_disk_dead", "AT_S:DISK", 2, 1,
     [](FaultPlan &p, const std::vector<double> &f) {
         p.diskDead(fromSeconds(f[0]), static_cast<int>(f[1]));
     }},
};

/** Split @p value into the colon-separated numbers @p key wants. */
std::vector<double>
toFaultFields(const FaultKey &key, const std::string &value)
{
    const std::string what = std::string("grid key '") + key.name + "'";
    std::vector<double> fields;
    std::istringstream is(value);
    std::string item;
    while (std::getline(is, item, ':')) {
        fields.push_back(fields.size() == key.diskField
                             ? parseCount<int>(item, what)
                             : parseNumber(item, what));
    }
    if (fields.size() != key.fields)
        PISO_FATAL(what, " wants ", key.shape, ", got '", value, "'");
    return fields;
}

} // namespace

std::string
ExperimentTask::label() const
{
    std::string out;
    for (const auto &[key, value] : params) {
        if (!out.empty())
            out += ' ';
        out += key + '=' + value;
    }
    return out;
}

void
applyGridKey(SystemConfig &cfg, const std::string &key,
             const std::string &value)
{
    for (const FaultKey &f : kFaultKeys) {
        if (key == f.name) {
            if (value != "none")
                f.add(cfg.faults, toFaultFields(f, value));
            return;
        }
    }
    if (applyMachineKey(cfg, key, value, "grid key"))
        return;
    std::vector<std::string> keys = machineKeyNames();
    for (const FaultKey &f : kFaultKeys)
        keys.emplace_back(f.name);
    PISO_FATAL("unknown grid key '", key, "' (", joinNames(keys), ")");
}

GridAxis
parseGridAxis(const std::string &text)
{
    const auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq == text.size() - 1)
        PISO_FATAL("grid axis '", text, "' is not key=v1,v2,...");

    GridAxis axis;
    axis.key = text.substr(0, eq);
    std::istringstream is(text.substr(eq + 1));
    std::string value;
    while (std::getline(is, value, ',')) {
        if (value.empty())
            PISO_FATAL("grid axis '", text, "' has an empty value");
        axis.values.push_back(value);
    }
    if (axis.values.empty())
        PISO_FATAL("grid axis '", text, "' has no values");
    return axis;
}

std::vector<ExperimentTask>
expandPlan(const ExperimentPlan &plan)
{
    for (const GridAxis &axis : plan.axes) {
        if (axis.values.empty())
            PISO_FATAL("grid axis '", axis.key, "' has no values");
    }

    const std::vector<std::uint64_t> seeds =
        plan.seeds.empty() ? std::vector<std::uint64_t>{
                                 plan.base.config.seed}
                           : plan.seeds;

    std::vector<ExperimentTask> tasks;
    // Odometer over the axes (first axis outermost), seeds innermost.
    std::vector<std::size_t> at(plan.axes.size(), 0);
    for (;;) {
        for (std::uint64_t seed : seeds) {
            ExperimentTask task;
            task.index = tasks.size();
            task.seed = seed;
            task.spec = plan.base;
            for (std::size_t a = 0; a < plan.axes.size(); ++a)
                task.params.emplace_back(plan.axes[a].key,
                                         plan.axes[a].values[at[a]]);
            // As on a machine line, `scheme` goes first and the
            // per-resource policy axes refine the column it picks.
            for (const bool scheme : {true, false}) {
                for (const auto &[key, value] : task.params) {
                    if ((key == kSchemeKey) == scheme)
                        applyGridKey(task.spec.config, key, value);
                }
            }
            task.spec.config.seed = seed;
            task.params.emplace_back("seed", std::to_string(seed));
            tasks.push_back(std::move(task));
        }

        // Advance the odometer; rightmost axis spins fastest.
        std::size_t a = plan.axes.size();
        while (a > 0) {
            --a;
            if (++at[a] < plan.axes[a].values.size())
                break;
            at[a] = 0;
            if (a == 0)
                return tasks;
        }
        if (plan.axes.empty())
            return tasks;
    }
}

} // namespace piso::exp
