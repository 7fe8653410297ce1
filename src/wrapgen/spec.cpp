#include "spec.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "simcommon/str.hpp"

namespace wrapgen {

namespace {

[[noreturn]] void fail(int line, const std::string& why) {
  throw std::runtime_error("wrapgen spec line " + std::to_string(line) + ": " + why);
}

/// Split a C parameter list on top-level commas (none of our types nest,
/// but be conservative about parentheses anyway).
std::vector<std::string> split_params(const std::string& list) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (const char c : list) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!simx::trim(cur).empty()) out.push_back(cur);
  return out;
}

Param parse_param(const std::string& raw, int line) {
  const std::string p = simx::trim(raw);
  if (p.empty() || p == "void") fail(line, "empty parameter");
  // The name is the trailing identifier; everything before it is the type.
  std::size_t end = p.size();
  while (end > 0 && (std::isalnum(static_cast<unsigned char>(p[end - 1])) != 0 ||
                     p[end - 1] == '_')) {
    --end;
  }
  if (end == p.size()) fail(line, "parameter without a name: '" + p + "'");
  Param out;
  out.name = p.substr(end);
  out.type = simx::trim(p.substr(0, end));
  if (out.type.empty()) fail(line, "parameter without a type: '" + p + "'");
  return out;
}

/// Extract a {...}-braced value from an attr token "key={...}".
std::string braced(const std::string& token, int line) {
  const std::size_t open = token.find('{');
  if (open == std::string::npos || token.back() != '}') {
    fail(line, "expected key={expr} in '" + token + "'");
  }
  return token.substr(open + 1, token.size() - open - 2);
}

}  // namespace

SpecFile parse_spec(const std::string& text) {
  SpecFile spec;
  int lineno = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = simx::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '!') {
      const std::size_t sp = line.find(' ');
      if (sp == std::string::npos) fail(lineno, "malformed directive '" + line + "'");
      const std::string key = line.substr(1, sp - 1);
      const std::string val = simx::trim(line.substr(sp + 1));
      if (key == "include") {
        std::string path = val;
        if (path.size() >= 2 && path.front() == '"' && path.back() == '"') {
          path = path.substr(1, path.size() - 2);
        }
        spec.includes.push_back(path);
      } else if (key == "real_prefix") {
        spec.real_prefix = val;
      } else if (key == "timed") {
        spec.timed_helper = val;
      } else {
        fail(lineno, "unknown directive '!" + key + "'");
      }
      continue;
    }
    const std::vector<std::string> cols = simx::split(line, '|');
    if (cols.size() < 3 || cols.size() > 4) {
      fail(lineno, "expected 'ret | name | args [| attrs]'");
    }
    CallSpec call;
    call.ret = simx::trim(cols[0]);
    call.name = simx::trim(cols[1]);
    if (call.ret.empty() || call.name.empty()) fail(lineno, "empty return type or name");
    const std::string args = simx::trim(cols[2]);
    if (!args.empty() && args != "void") {
      for (const std::string& p : split_params(args)) {
        call.params.push_back(parse_param(p, lineno));
      }
    }
    if (cols.size() == 4) {
      // Tokenize attributes on spaces, except inside {...} expressions
      // (byte-size expressions routinely contain spaces and casts).
      std::vector<std::string> tokens;
      {
        const std::string attr_text = simx::trim(cols[3]);
        std::string cur;
        int depth = 0;
        for (const char c : attr_text) {
          if (c == '{') ++depth;
          if (c == '}') --depth;
          if (std::isspace(static_cast<unsigned char>(c)) != 0 && depth == 0) {
            if (!cur.empty()) tokens.push_back(cur);
            cur.clear();
          } else {
            cur += c;
          }
        }
        if (!cur.empty()) tokens.push_back(cur);
        if (depth != 0) fail(lineno, "unbalanced braces in attributes");
      }
      for (const std::string& tok : tokens) {
        if (tok == "plain") {
          call.kind = CallKind::kPlain;
        } else if (tok == "memcpy") {
          call.kind = CallKind::kMemcpy;
        } else if (tok == "launch") {
          call.kind = CallKind::kLaunch;
        } else if (tok == "configure") {
          call.kind = CallKind::kConfigure;
        } else if (tok == "init") {
          call.kind = CallKind::kInit;
        } else if (tok == "finalize") {
          call.kind = CallKind::kFinalize;
        } else if (tok == "sync") {
          call.sync = true;
        } else if (tok == "async") {
          call.sync = false;
        } else if (tok == "nostatus") {
          call.nostatus = true;
        } else if (simx::starts_with(tok, "bytes=")) {
          call.bytes_expr = braced(tok, lineno);
        } else if (simx::starts_with(tok, "select=")) {
          call.select_expr = braced(tok, lineno);
        } else if (simx::starts_with(tok, "kind=")) {
          call.kind_arg = braced(tok, lineno);
        } else if (simx::starts_with(tok, "dir=")) {
          call.fixed_dir = tok.substr(4);
          if (call.fixed_dir != "h2d" && call.fixed_dir != "d2h" &&
              call.fixed_dir != "d2d") {
            fail(lineno, "dir must be h2d|d2h|d2d");
          }
        } else if (simx::starts_with(tok, "stream=")) {
          const std::string v = tok.substr(7);
          call.stream_arg = (v == "default" || v == "pending") ? "" : braced(tok, lineno);
          if (v == "pending") call.stream_arg = "pending";
        } else if (simx::starts_with(tok, "func=")) {
          call.func_arg = braced(tok, lineno);
        } else {
          fail(lineno, "unknown attribute '" + tok + "'");
        }
      }
    }
    if (call.kind == CallKind::kMemcpy && call.kind_arg.empty() && call.fixed_dir.empty()) {
      fail(lineno, "memcpy needs kind={arg} or dir=");
    }
    if (call.kind == CallKind::kLaunch && call.func_arg.empty()) {
      fail(lineno, "launch needs func={arg}");
    }
    spec.calls.push_back(std::move(call));
  }
  return spec;
}

SpecFile parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("wrapgen: cannot open spec '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_spec(ss.str());
}

namespace {

std::string param_list(const CallSpec& c) {
  std::string out;
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    if (i > 0) out += ", ";
    out += c.params[i].type + " " + c.params[i].name;
  }
  return out.empty() ? "void" : out;
}

std::string arg_list(const CallSpec& c) {
  std::string out;
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    if (i > 0) out += ", ";
    out += c.params[i].name;
  }
  return out;
}

std::string type_list(const CallSpec& c) {
  std::string out;
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    if (i > 0) out += ", ";
    out += c.params[i].type;
  }
  return out;
}

std::string dir_expr(const CallSpec& c) {
  if (!c.kind_arg.empty()) return "ipm::cuda::dir_of(" + c.kind_arg + ")";
  if (c.fixed_dir == "h2d") return "ipm::cuda::Dir::kH2D";
  if (c.fixed_dir == "d2h") return "ipm::cuda::Dir::kD2H";
  return "ipm::cuda::Dir::kD2D";
}

std::string stream_expr(const CallSpec& c) {
  if (c.stream_arg.empty()) return "nullptr";
  if (c.stream_arg == "pending") return "ipm::cuda::pending_stream()";
  return c.stream_arg;
}

/// Error domain of the wrapped call, derived from its return type (the spec
/// is itself derived from the headers, so the return type is authoritative).
/// kNone when the return value carries no error status (void and value
/// returns, nostatus queries): the helper then records every call as a
/// success.
std::string domain_expr(const CallSpec& c) {
  if (c.nostatus) return "ipm::ErrDomain::kNone";
  if (c.ret == "cudaError_t") return "ipm::ErrDomain::kCudaRt";
  if (c.ret == "CUresult") return "ipm::ErrDomain::kCudaDrv";
  if (c.ret == "cublasStatus") return "ipm::ErrDomain::kCublas";
  if (c.ret == "cufftResult") return "ipm::ErrDomain::kCufft";
  if (c.ret == "int" && simx::starts_with(c.name, "MPI_")) return "ipm::ErrDomain::kMpi";
  return "ipm::ErrDomain::kNone";
}

/// Emit the body shared by wrap and preload modes; `real_call` is the
/// expression invoking the real function with the original arguments.
std::string emit_body(const SpecFile& spec, const CallSpec& c,
                      const std::string& real_call) {
  std::string out;
  // Every helper takes the call's error domain, then the real call.
  const std::string tail = domain_expr(c) + ", [&] { return " + real_call + "; });\n";
  switch (c.kind) {
    case CallKind::kMemcpy:
      out += "  static const ipm::cuda::DirNames kNames = ipm::cuda::make_dir_names(\"" +
             c.name + "\");\n";
      out += "  return ipm::cuda::wrap_memcpy(kNames, static_cast<std::uint64_t>(" +
             c.bytes_expr + "), " + dir_expr(c) + ", " + (c.sync ? "true" : "false") +
             ", " + stream_expr(c) + ", " + tail;
      break;
    case CallKind::kLaunch:
      out += "  static const ipm::PreparedKey kKey = ipm::prepare_key(\"" + c.name + "\");\n";
      out += "  return ipm::cuda::wrap_launch(kKey, " + c.func_arg + ", " +
             stream_expr(c) + ", " + tail;
      break;
    case CallKind::kConfigure:
      out += "  static const ipm::PreparedKey kKey = ipm::prepare_key(\"" + c.name + "\");\n";
      out += "  ipm::cuda::note_configured_stream(" + c.stream_arg + ");\n";
      out += "  return " + spec.timed_helper + "(kKey, 0, 0, " + tail;
      break;
    case CallKind::kInit:
      out += "  static const ipm::PreparedKey kKey = ipm::prepare_key(\"" + c.name + "\");\n";
      out += "  (void)ipm::monitor();  // start monitoring this rank\n";
      out += "  ipm::trace_lifecycle_marker(kKey);\n";
      out += "  return " + spec.timed_helper + "(kKey, 0, 0, " + tail;
      break;
    case CallKind::kFinalize:
      out += "  static const ipm::PreparedKey kKey = ipm::prepare_key(\"" + c.name + "\");\n";
      out += "  ipm::trace_lifecycle_marker(kKey);\n";
      out += "  auto ret = " + spec.timed_helper + "(kKey, 0, 0, " + tail;
      out += "  if (ipm::has_monitor()) ipm::rank_finalize();\n";
      out += "  return ret;\n";
      break;
    case CallKind::kPlain:
      out += "  static const ipm::PreparedKey kKey = ipm::prepare_key(\"" + c.name + "\");\n";
      out += "  return " + spec.timed_helper + "(kKey, static_cast<std::uint64_t>(" +
             c.bytes_expr + "), static_cast<std::int32_t>(" + c.select_expr + "), " + tail;
      break;
  }
  return out;
}

std::string header(const SpecFile& spec, const char* mode) {
  std::string out =
      "// GENERATED by wrapgen — do not edit.  Regenerate with:\n"
      "//   wrapgen --mode " +
      std::string(mode) + " --spec <spec> --out <this file>\n";
  for (const std::string& inc : spec.includes) out += "#include \"" + inc + "\"\n";
  out += "\n";
  return out;
}

}  // namespace

std::string emit_wrap(const SpecFile& spec) {
  std::string out = header(spec, "wrap");
  for (const CallSpec& c : spec.calls) {
    const std::string real_call = spec.real_prefix + c.name + "(" + arg_list(c) + ")";
    out += "extern \"C\" " + c.ret + " __wrap_" + c.name + "(" + param_list(c) + ") {\n";
    out += emit_body(spec, c, real_call);
    out += "}\n\n";
  }
  return out;
}

std::string emit_preload(const SpecFile& spec) {
  std::string out = header(spec, "preload");
  out = out.substr(0, out.size() - 1);  // keep trailing layout stable
  out += "#include \"ipm_preload/resolve.hpp\"\n\n";
  for (const CallSpec& c : spec.calls) {
    out += "extern \"C\" " + c.ret + " " + c.name + "(" + param_list(c) + ") {\n";
    out += "  using FnT = " + c.ret + " (*)(" + type_list(c) + ");\n";
    out += "  static FnT const kReal =\n"
           "      reinterpret_cast<FnT>(ipm::preload::resolve_next(\"" +
           c.name + "\"));\n";
    out += emit_body(spec, c, "kReal(" + arg_list(c) + ")");
    out += "}\n\n";
  }
  return out;
}

std::string emit_symbols(const std::vector<SpecFile>& specs) {
  std::string out =
      "# GENERATED by wrapgen — do not edit.  Symbols rewired by\n"
      "# ipm_enable_monitoring() via -Wl,--wrap=<sym>.\n"
      "set(IPM_WRAPPED_SYMBOLS\n";
  for (const SpecFile& spec : specs) {
    for (const CallSpec& c : spec.calls) out += "  " + c.name + "\n";
  }
  out += ")\n";
  return out;
}

}  // namespace wrapgen
