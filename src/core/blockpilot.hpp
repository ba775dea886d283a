// BlockPilot public API facade.
//
// #include "core/blockpilot.hpp" pulls in the full framework:
//  * BlockProposer   — parallel block production (OCC-WSI, Algorithm 1;
//                      or Block-STM)
//  * BlockValidator  — scheduled deterministic parallel replay (Algorithm 2;
//                      or Block-STM)
//  * ValidatorPipeline — multi-block pipelined validation (Fig. 5)
//  * execute_serial  — the Geth-style serial reference / oracle
//  * TwoPhaseOcc     — the parallel-then-serial OCC comparison baseline
// plus the substrate types they exchange (blocks, profiles, world state,
// transaction pool, workload generation).
#pragma once

#include "chain/block.hpp"
#include "chain/blockchain.hpp"
#include "chain/profile.hpp"
#include "chain/receipt.hpp"
#include "chain/transaction.hpp"
#include "commit/commit_pipeline.hpp"
#include "core/node_driver.hpp"
#include "core/occ_baseline.hpp"
#include "core/pipeline.hpp"
#include "core/proposer.hpp"
#include "core/serial_executor.hpp"
#include "core/validator.hpp"
#include "evm/state_transition.hpp"
#include "sched/depgraph.hpp"
#include "state/world_state.hpp"
#include "support/thread_pool.hpp"
#include "txpool/txpool.hpp"
#include "vtime/vtime.hpp"
#include "workload/generator.hpp"
