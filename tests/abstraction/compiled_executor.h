// Reference executor for compiled process bodies: a straightforward
// stack machine over the policy's Vec values, kept in the test tree as the
// oracle that the production scalar machine (abstraction/scalar_machine.h)
// is compared against (compiled_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "abstraction/compiled.h"
#include "ir/eval.h"

namespace xlv::abstraction {

/// Stack-machine executor, templated on the value policy.
template <class P>
class CompiledExecutor {
 public:
  using Vec = typename P::Vec;

  CompiledExecutor(const ir::Design& d, const CompiledDesign& code, ir::ValueStore<P>& store)
      : d_(d), code_(code), store_(store) {
    constPool_.reserve(code.constants.size());
    for (const auto& c : code.constants) {
      constPool_.push_back(Vec::fromUint(c.width, c.value));
    }
    int maxStack = 8;
    for (const auto& p : code.procs) maxStack = std::max(maxStack, p.maxStack);
    stack_.reserve(static_cast<std::size_t>(maxStack) + 4);
  }

  void run(int procIndex, std::vector<ir::SignalWrite<P>>& nba) {
    using namespace hdt;
    const auto& ops = code_.procs[static_cast<std::size_t>(procIndex)].ops;
    stack_.clear();
    std::size_t pc = 0;
    while (true) {
      const Op& op = ops[pc];
      switch (op.code) {
        case OpCode::PushConst:
          stack_.push_back(constPool_[static_cast<std::size_t>(op.a)]);
          break;
        case OpCode::PushSig:
          stack_.push_back(store_.get(op.sym));
          break;
        case OpCode::PushArrayElem: {
          Vec idx = std::move(stack_.back());
          stack_.pop_back();
          if (idx.anyUnknown()) {
            stack_.push_back(Vec::allX(d_.symbol(op.sym).type.width));
          } else {
            stack_.push_back(store_.getArray(op.sym, idx.toUint()));
          }
          break;
        }
        case OpCode::UnNot: top() = vec_not(top()); break;
        case OpCode::UnNeg: top() = vec_neg(top()); break;
        case OpCode::UnRedAnd: top() = vec_redand(top()); break;
        case OpCode::UnRedOr: top() = vec_redor(top()); break;
        case OpCode::UnRedXor: top() = vec_redxor(top()); break;
        case OpCode::UnBoolNot:
          top() = Vec::fromUint(1, vec_isTrue(top()) ? 0 : 1);
          break;
        case OpCode::BiAnd: binop([](const Vec& x, const Vec& y) { return vec_and(x, y); }); break;
        case OpCode::BiOr: binop([](const Vec& x, const Vec& y) { return vec_or(x, y); }); break;
        case OpCode::BiXor: binop([](const Vec& x, const Vec& y) { return vec_xor(x, y); }); break;
        case OpCode::BiAdd: binop([](const Vec& x, const Vec& y) { return vec_add(x, y); }); break;
        case OpCode::BiSub: binop([](const Vec& x, const Vec& y) { return vec_sub(x, y); }); break;
        case OpCode::BiMul: binop([](const Vec& x, const Vec& y) { return vec_mul(x, y); }); break;
        case OpCode::BiDiv: binop([](const Vec& x, const Vec& y) { return vec_div(x, y); }); break;
        case OpCode::BiMod: binop([](const Vec& x, const Vec& y) { return vec_mod(x, y); }); break;
        case OpCode::BiShl:
        case OpCode::BiShr:
        case OpCode::BiAShr: {
          Vec amt = std::move(stack_.back());
          stack_.pop_back();
          Vec& v = top();
          if (amt.anyUnknown()) {
            v = Vec::allX(op.a);
            break;
          }
          const std::uint64_t raw = amt.toUint();
          const int amount = raw > 1u << 20 ? (1 << 20) : static_cast<int>(raw);
          if (op.code == OpCode::BiShl) {
            v = vec_shl(v, amount);
          } else if (op.code == OpCode::BiShr) {
            v = vec_shr(v, amount);
          } else {
            v = vec_ashr(v, amount);
          }
          break;
        }
        case OpCode::BiEq: binop([](const Vec& x, const Vec& y) { return vec_eq(x, y); }); break;
        case OpCode::BiNe: binop([](const Vec& x, const Vec& y) { return vec_ne(x, y); }); break;
        case OpCode::BiLtu: binop([](const Vec& x, const Vec& y) { return vec_ltu(x, y); }); break;
        case OpCode::BiLeu: binop([](const Vec& x, const Vec& y) { return vec_leu(x, y); }); break;
        case OpCode::BiLts: binop([](const Vec& x, const Vec& y) { return vec_lts(x, y); }); break;
        case OpCode::BiLes: binop([](const Vec& x, const Vec& y) { return vec_les(x, y); }); break;
        case OpCode::BiConcat:
          binop([](const Vec& x, const Vec& y) { return vec_concat(x, y); });
          break;
        case OpCode::Slice: top() = vec_slice(top(), op.a, op.b); break;
        case OpCode::Resize: top() = vec_resize(top(), op.a); break;
        case OpCode::Sext: top() = vec_sext(top(), op.a); break;
        case OpCode::JumpIfFalse: {
          const bool t = hdt::vec_isTrue(stack_.back());
          stack_.pop_back();
          if (!t) {
            pc = static_cast<std::size_t>(op.a);
            continue;
          }
          break;
        }
        case OpCode::JumpIfTrue: {
          const bool t = hdt::vec_isTrue(stack_.back());
          stack_.pop_back();
          if (t) {
            pc = static_cast<std::size_t>(op.a);
            continue;
          }
          break;
        }
        case OpCode::Jump:
          pc = static_cast<std::size_t>(op.a);
          continue;
        case OpCode::Dup:
          stack_.push_back(stack_.back());
          break;
        case OpCode::Pop:
          stack_.pop_back();
          break;
        case OpCode::StoreVar:
          store_.set(op.sym, std::move(stack_.back()));
          stack_.pop_back();
          break;
        case OpCode::StoreVarRange: {
          hdt::vec_setSlice(store_.mut(op.sym), op.a, op.b, stack_.back());
          stack_.pop_back();
          break;
        }
        case OpCode::StoreSig:
          nba.push_back(ir::SignalWrite<P>{op.sym, -1, -1, -1, std::move(stack_.back())});
          stack_.pop_back();
          break;
        case OpCode::StoreSigRange:
          nba.push_back(ir::SignalWrite<P>{op.sym, op.a, op.b, -1, std::move(stack_.back())});
          stack_.pop_back();
          break;
        case OpCode::StoreArray: {
          Vec v = std::move(stack_.back());
          stack_.pop_back();
          Vec idx = std::move(stack_.back());
          stack_.pop_back();
          if (!idx.anyUnknown()) {
            nba.push_back(ir::SignalWrite<P>{op.sym, -1, -1,
                                             static_cast<std::int64_t>(idx.toUint()),
                                             std::move(v)});
          }
          break;
        }
        case OpCode::End:
          return;
      }
      ++pc;
    }
  }

 private:
  Vec& top() noexcept { return stack_.back(); }

  template <typename F>
  void binop(F f) {
    Vec rhs = std::move(stack_.back());
    stack_.pop_back();
    Vec& lhs = stack_.back();
    lhs = f(lhs, rhs);
  }

  const ir::Design& d_;
  const CompiledDesign& code_;
  ir::ValueStore<P>& store_;
  std::vector<Vec> constPool_;
  std::vector<Vec> stack_;
};

}  // namespace xlv::abstraction
