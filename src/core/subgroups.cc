#include "core/subgroups.h"

#include <algorithm>
#include <optional>
#include <queue>

#include "common/logging.h"
#include "common/metrics.h"
#include "info/contingency.h"
#include "info/mutual_information.h"
#include "query/group_by.h"

namespace mesa {

namespace {

// A refinement atom: one (attribute, value) equality condition, realised as
// the set of context rows it matches.
struct Atom {
  size_t attribute = 0;  // index into the refinement attribute list
  Condition condition;
  std::vector<uint32_t> rows;  // sorted context-row indices
};

// A node of the pattern graph: a set of atoms (strictly increasing indices,
// which both dedupes and gives each node a unique generation path).
struct Node {
  std::vector<size_t> atoms;
  std::vector<uint32_t> rows;
};

struct NodeSizeLess {
  bool operator()(const Node& a, const Node& b) const {
    return a.rows.size() < b.rows.size();
  }
};

std::vector<uint32_t> IntersectSorted(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

CodedVariable GatherCodes(const CodedVariable& full,
                          const std::vector<uint32_t>& rows) {
  CodedVariable out;
  out.cardinality = full.cardinality;
  out.codes.reserve(rows.size());
  for (uint32_t r : rows) out.codes.push_back(full.codes[r]);
  return out;
}

// The context rows of the columns Algorithm 2 reads (each once, in order;
// names the table lacks are left out, so their lookups fail later exactly
// as they would on a full gather).
Table GatherColumns(const Table& table, const std::vector<std::string>& names,
                    const std::vector<size_t>& rows) {
  Schema schema;
  std::vector<Column> columns;
  for (const std::string& name : names) {
    std::optional<size_t> idx = table.schema().IndexOf(name);
    if (!idx.has_value() || schema.Contains(name)) continue;
    MESA_CHECK(schema.AddField(table.schema().field(*idx)).ok());
    columns.push_back(table.column(*idx).Take(rows));
  }
  Result<Table> out = Table::Make(std::move(schema), std::move(columns));
  MESA_CHECK(out.ok());
  return std::move(*out);
}

}  // namespace

Result<std::vector<UnexplainedSubgroup>> FindUnexplainedSubgroups(
    const Table& table, const QuerySpec& query,
    const std::vector<std::string>& explanation,
    const SubgroupOptions& options) {
  MESA_RETURN_IF_ERROR(query.Validate(table));

  // Work over the context-filtered rows: the caller's table itself when C
  // matches every row, else a gather of the columns read below. Code O, T,
  // and the joint explanation Z once over them.
  const Table* ctx = &table;
  Table gathered;
  CodedVariable oc, tc, z;
  {
    MESA_SPAN("context");
    MESA_ASSIGN_OR_RETURN(std::vector<size_t> ctx_rows,
                          query.context.MatchingRows(table));
    if (ctx_rows.size() != table.num_rows()) {
      std::vector<std::string> names = query.AllExposures();
      names.insert(names.begin(), query.outcome);
      names.insert(names.end(), explanation.begin(), explanation.end());
      names.insert(names.end(), options.refinement_attributes.begin(),
                   options.refinement_attributes.end());
      gathered = GatherColumns(table, names, ctx_rows);
      ctx = &gathered;
    }
    const size_t n = ctx_rows.size();

    MESA_ASSIGN_OR_RETURN(Discretized o,
                          DiscretizeColumn(*ctx, query.outcome,
                                           options.discretizer));
    oc = CodedVariable{std::move(o.codes), o.cardinality};
    std::vector<CodedVariable> exposure_parts;
    for (const std::string& name : query.AllExposures()) {
      MESA_ASSIGN_OR_RETURN(
          Discretized t, DiscretizeColumn(*ctx, name, options.discretizer));
      exposure_parts.push_back(CodedVariable{std::move(t.codes),
                                             t.cardinality});
    }
    std::vector<const CodedVariable*> ptrs;
    for (const auto& p : exposure_parts) ptrs.push_back(&p);
    tc = CombineAll(ptrs, n);

    std::vector<CodedVariable> explanation_codes;
    explanation_codes.reserve(explanation.size());
    for (const std::string& name : explanation) {
      MESA_ASSIGN_OR_RETURN(Discretized d,
                            DiscretizeColumn(*ctx, name, options.discretizer));
      explanation_codes.push_back(CodedVariable{std::move(d.codes),
                                                d.cardinality});
    }
    ptrs.clear();
    for (const auto& c : explanation_codes) ptrs.push_back(&c);
    z = CombineAll(ptrs, n);
  }
  const size_t n = ctx->num_rows();

  // Build refinement atoms from the allowed attributes: one pass buckets
  // the rows of every value, in row order.
  std::vector<Atom> atoms;
  {
    MESA_SPAN("atoms");
    size_t attr_idx = 0;
    for (const std::string& name : options.refinement_attributes) {
      if (name == query.outcome || query.IsExposure(name)) {
        ++attr_idx;
        continue;
      }
      std::vector<Value> values;
      MESA_ASSIGN_OR_RETURN(std::vector<int32_t> codes,
                            EncodeGroups(*ctx, name, &values));
      if (values.size() > options.max_values_per_attribute ||
          values.size() < 2) {
        ++attr_idx;
        continue;
      }
      std::vector<std::vector<uint32_t>> rows(values.size());
      for (size_t r = 0; r < n; ++r) {
        if (codes[r] < 0) continue;
        rows[static_cast<size_t>(codes[r])].push_back(
            static_cast<uint32_t>(r));
      }
      for (size_t v = 0; v < values.size(); ++v) {
        if (rows[v].size() < options.min_group_size) continue;
        Atom atom;
        atom.attribute = attr_idx;
        atom.condition = {name, CompareOp::kEq, values[v], {}};
        atom.rows = std::move(rows[v]);
        atoms.push_back(std::move(atom));
      }
      ++attr_idx;
    }
  }

  MESA_SPAN("search");
  // Raw outcome values for per-subgroup re-discretisation: global outcome
  // bins have no resolution inside a tight subgroup (all European salaries
  // share the top global bin), which would under-score exactly the groups
  // Algorithm 2 exists to find.
  MESA_ASSIGN_OR_RETURN(const Column* ocol, ctx->ColumnByName(query.outcome));
  const bool numeric_outcome = ocol->type() != DataType::kString;

  auto score_of = [&](const std::vector<uint32_t>& rows) {
    CodedVariable os;
    if (numeric_outcome) {
      std::vector<double> values;
      values.reserve(rows.size());
      for (uint32_t r : rows) {
        if (ocol->IsValid(r)) values.push_back(ocol->NumericAt(r));
      }
      Discretized d = DiscretizeVector(values, options.discretizer);
      os.cardinality = d.cardinality;
      os.codes.assign(rows.size(), -1);
      size_t k = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (ocol->IsValid(rows[i])) os.codes[i] = d.codes[k++];
      }
    } else {
      os = GatherCodes(oc, rows);
    }
    CodedVariable ts = GatherCodes(tc, rows);
    CodedVariable zs = GatherCodes(z, rows);
    return ConditionalMutualInformation(os, ts, zs, nullptr, options.entropy);
  };

  // Top-down traversal with a size-ordered max-heap (Algorithm 2). Seeding
  // with the single-atom children of C; a node's children extend it with
  // atoms of a strictly later atom index, so every refinement is generated
  // at most once.
  std::priority_queue<Node, std::vector<Node>, NodeSizeLess> heap;
  for (size_t a = 0; a < atoms.size(); ++a) {
    heap.push(Node{{a}, atoms[a].rows});
  }

  std::vector<UnexplainedSubgroup> results;
  std::vector<std::vector<size_t>> result_atoms;
  while (results.size() < options.top_k && !heap.empty()) {
    Node node = heap.top();
    heap.pop();
    double score = score_of(node.rows);
    if (score > options.threshold) {
      // update(R, C'): drop C' if an ancestor is already reported.
      bool has_ancestor = false;
      for (const auto& prev : result_atoms) {
        bool subset = std::includes(node.atoms.begin(), node.atoms.end(),
                                    prev.begin(), prev.end());
        if (subset) {
          has_ancestor = true;
          break;
        }
      }
      if (!has_ancestor) {
        UnexplainedSubgroup g;
        g.refinement = query.context;
        for (size_t a : node.atoms) g.refinement.Add(atoms[a].condition);
        g.size = node.rows.size();
        g.score = score;
        results.push_back(std::move(g));
        result_atoms.push_back(node.atoms);
      }
      continue;
    }
    // Expand: add one atom with a later index and a different attribute.
    if (node.atoms.size() >= options.max_depth) continue;
    size_t last = node.atoms.back();
    for (size_t a = last + 1; a < atoms.size(); ++a) {
      if (atoms[a].attribute == atoms[last].attribute) continue;
      std::vector<uint32_t> rows = IntersectSorted(node.rows, atoms[a].rows);
      if (rows.size() < options.min_group_size) continue;
      std::vector<size_t> child_atoms = node.atoms;
      child_atoms.push_back(a);
      heap.push(Node{std::move(child_atoms), std::move(rows)});
    }
  }
  return results;
}

}  // namespace mesa
