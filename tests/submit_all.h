/**
 * @file
 * Test helper: submit a batch to a BatchEngine and wait for it.
 */

#ifndef EXION_TESTS_SUBMIT_ALL_H_
#define EXION_TESTS_SUBMIT_ALL_H_

#include <vector>

#include "exion/serve/batch_engine.h"

namespace exion
{

/** Submits every request, then returns the results in request order. */
inline std::vector<RequestResult>
submitAll(BatchEngine &engine, const std::vector<ServeRequest> &requests)
{
    std::vector<Ticket> tickets;
    for (const ServeRequest &req : requests)
        tickets.push_back(engine.submit(req));
    std::vector<RequestResult> results;
    for (const Ticket &t : tickets)
        results.push_back(t.get());
    return results;
}

} // namespace exion

#endif // EXION_TESTS_SUBMIT_ALL_H_
