/**
 * @file
 * Base class for named simulation components.
 */

#ifndef PMEMSPEC_SIM_SIM_OBJECT_HH
#define PMEMSPEC_SIM_SIM_OBJECT_HH

#include <string>

#include "common/stats.hh"
#include "sim/event_queue.hh"

namespace pmemspec::sim
{

/**
 * A named component attached to an event queue with its own StatGroup.
 * Subclasses register statistics in their constructors.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq, StatGroup *parent_stats)
        : objName(std::move(name)), eventq(eq),
          statGroup(objName, parent_stats)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return objName; }
    Tick curTick() const { return eventq.now(); }
    StatGroup &stats() { return statGroup; }

  protected:
    EventQueue &eventQueue() { return eventq; }

    /** The unified scheduling interface: absolute tick or After{delta}
     *  relative to now, forwarding straight into the event kernel. */
    template <typename W, typename F>
    void
    schedule(W when, F &&f)
    {
        eventq.schedule(when, std::forward<F>(f));
    }

  private:
    std::string objName;
    EventQueue &eventq;
    StatGroup statGroup;
};

} // namespace pmemspec::sim

#endif // PMEMSPEC_SIM_SIM_OBJECT_HH
