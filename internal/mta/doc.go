// Package mta models the Cray MTA-2, the machine the paper's experiments ran
// on, closely enough to reproduce the *shapes* of its parallel results on
// commodity hardware.
//
// The MTA-2 is a massively multithreaded machine: each 220 MHz processor holds
// 128 hardware thread contexts ("streams") and the network retires one memory
// reference per processor per cycle, so performance is governed by available
// parallelism and loop-management overhead rather than by caches. The paper's
// findings — insufficient parallelism in small instances, loop fork cost
// dominating small toVisit loops (Table 6), throughput saturation for
// simultaneous queries (Figure 5) — are all consequences of this model.
//
// Machine holds the cost parameters of one configuration and prices a loop
// in each par.LoopMode by Brent's bound T_p = fork + work/lanes + span. Sim
// is the par.Runtime that runs every loop serially and charges it to a
// Machine; SimCost().Span is the modelled makespan. The algorithms are
// written against par.Runtime and never import this package; its drivers
// (the root facade, internal/harness, the stress harness) hand them a Sim.
// Full/empty-bit synchronization is not modeled as a memory word: the one
// place the algorithms need it is par.CASMin's CAS loop.
//
// See DESIGN.md §3 ("System inventory") for how this package fits the system.
package mta
