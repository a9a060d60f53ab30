// The combinational/sequential (c/s) model of BLIF-MV, encoded symbolically.
//
// A flattened BLIF-MV model is turned into:
//  - one multi-valued variable per signal (MvSpace),
//  - a distinct next-state variable y_l per latch, with present/next encoding
//    bits interleaved in the BDD order (the variable-ordering strategy of
//    Aziz-Tasiran-Brayton for interacting FSMs),
//  - one relation BDD per table, plus one linking relation y_l == input(l)
//    per latch,
//  - the initial-state set from .reset declarations.
//
// The product transition relation T(x,y) = ∃ nonstate . ∏ relations is built
// by the early-quantification machinery in quantify.hpp.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "blifmv/blifmv.hpp"
#include "mvf/mvf.hpp"

namespace hsis {

class Fsm {
 public:
  /// Build from a flattened model (no .subckt left). Throws
  /// std::runtime_error on semantic errors: multiple drivers, undeclared
  /// values, latches without reset values, combinational cycles.
  Fsm(BddManager& mgr, const blifmv::Model& flat);

  /// Replicate `src` into the transfer's destination manager: all symbolic
  /// components are structurally copied and the variable space is rebound.
  /// The source manager must be quiescent for the duration (see
  /// BddTransfer); the replica is fully independent afterwards. Used by the
  /// parallel batch scheduler to give each worker its own engine.
  static Fsm transferred(BddTransfer& tx, const Fsm& src);

  [[nodiscard]] BddManager& mgr() const { return space_.mgr(); }
  [[nodiscard]] MvSpace& space() { return space_; }
  [[nodiscard]] const MvSpace& space() const { return space_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- structure ----
  [[nodiscard]] size_t numLatches() const { return latches_.size(); }
  [[nodiscard]] MvVarId stateVar(size_t l) const { return latches_[l].present; }
  [[nodiscard]] MvVarId nextVar(size_t l) const { return latches_[l].next; }
  [[nodiscard]] const std::string& latchName(size_t l) const {
    return latches_[l].name;
  }
  /// HDL source line of the latch's declaration (0 = unknown); carried by
  /// .lineinfo annotations for source-level debugging.
  [[nodiscard]] int latchLine(size_t l) const { return latches_[l].sourceLine; }
  [[nodiscard]] const std::vector<MvVarId>& stateVars() const { return stateVars_; }
  [[nodiscard]] const std::vector<MvVarId>& nextVars() const { return nextVars_; }
  /// Free primary inputs of the model (empty for a closed system).
  [[nodiscard]] const std::vector<MvVarId>& inputVars() const { return inputVars_; }
  /// Combinational nets (everything that is neither state nor free input).
  [[nodiscard]] const std::vector<MvVarId>& internalVars() const {
    return internalVars_;
  }

  /// The MV variable of a named signal, if any.
  [[nodiscard]] std::optional<MvVarId> signalVar(const std::string& name) const;

  // ---- symbolic components ----
  [[nodiscard]] const Bdd& initialStates() const { return init_; }
  /// All conjuncts of the product transition relation: one per table plus
  /// one per latch (y_l == next-state signal).
  [[nodiscard]] const std::vector<Bdd>& relations() const { return relations_; }

  [[nodiscard]] const Bdd& presentCube() const { return presentCube_; }
  [[nodiscard]] const Bdd& nextCube() const { return nextCube_; }
  /// Everything that is quantified out of the product: inputs + internals.
  [[nodiscard]] const Bdd& nonStateCube() const { return nonStateCube_; }

  /// Rename a set over next-state variables to present-state variables.
  [[nodiscard]] Bdd nextToPresent(const Bdd& f) const;
  [[nodiscard]] Bdd presentToNext(const Bdd& f) const;

  /// Number of encoding bits of the present-state rail (for satCount).
  [[nodiscard]] uint32_t stateBits() const { return stateBits_; }
  /// Count states in a set over present-state variables.
  [[nodiscard]] double countStates(const Bdd& set) const;

  /// Pretty-print one state (a cube over present-state vars) as
  /// "latch=value, ...".
  [[nodiscard]] std::string formatState(const std::vector<int8_t>& cube) const;
  /// Decode latch values from an assignment cube.
  [[nodiscard]] std::vector<uint32_t> decodeState(
      const std::vector<int8_t>& cube) const;
  /// Build the present-state cube BDD for explicit latch values.
  [[nodiscard]] Bdd stateFromValues(const std::vector<uint32_t>& values) const;

  /// Non-fatal diagnostics collected during construction (incomplete or
  /// nondeterministic tables, free inputs).
  [[nodiscard]] const std::vector<std::string>& diagnostics() const {
    return diagnostics_;
  }

  // ---- extension (composing a property monitor onto a design copy) ----
  /// Append a latch encoded on `presentBits`/`nextBits`, fresh variables
  /// that no existing variable of this machine uses: registers its present
  /// and next MV variables, conjoins `latch == reset` onto the initial
  /// states, and extends the cubes and rename maps. The latch is not a
  /// design signal (signalVar() does not know it), so its name can shadow
  /// none. Returns the new latch index; add its next-state relation with
  /// addRelation().
  size_t addLatch(const std::string& name, uint32_t domain,
                  const std::vector<std::string>& valueNames,
                  std::vector<BddVar> presentBits, std::vector<BddVar> nextBits,
                  uint32_t reset);
  /// Append one conjunct to relations().
  void addRelation(Bdd relation) { relations_.push_back(std::move(relation)); }

 private:
  struct LatchInfo {
    std::string name;        ///< latch output (present-state signal)
    std::string inputSignal; ///< combinational next-state signal
    MvVarId present;
    MvVarId next;
    int sourceLine = 0;      ///< HDL line from .lineinfo (0 = unknown)
  };

  void buildVariables(const blifmv::Model& flat);
  void buildRelations(const blifmv::Model& flat);
  void buildInit(const blifmv::Model& flat);
  void checkCombinationalCycles(const blifmv::Model& flat) const;

  MvSpace space_;
  std::string name_;
  std::vector<LatchInfo> latches_;
  std::vector<MvVarId> stateVars_, nextVars_, inputVars_, internalVars_;
  std::unordered_map<std::string, MvVarId> signalVar_;
  std::vector<Bdd> relations_;
  Bdd init_;
  Bdd presentCube_, nextCube_, nonStateCube_;
  std::vector<BddVar> nextToPresentMap_, presentToNextMap_;
  uint32_t stateBits_ = 0;
  std::vector<std::string> diagnostics_;
};

}  // namespace hsis
