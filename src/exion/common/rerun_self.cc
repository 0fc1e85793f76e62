#include "exion/common/rerun_self.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exion/common/logging.h"

extern char **environ;

namespace exion
{

namespace
{

[[noreturn]] void
fail(const char *call, int err)
{
    EXION_FATAL("rerunSelf: ", call, ": ", std::strerror(err));
}

/** Reads both pipes to EOF without letting either one fill up. */
void
drain(int out_fd, int err_fd, ChildRun &run)
{
    pollfd fds[2] = {{out_fd, POLLIN, 0}, {err_fd, POLLIN, 0}};
    std::string *sinks[2] = {&run.out, &run.err};
    int open = 2;
    char buf[1 << 16];
    while (open > 0) {
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            fail("poll", errno);
        }
        for (int i = 0; i < 2; ++i) {
            if (fds[i].fd < 0 || fds[i].revents == 0)
                continue;
            const ssize_t n = ::read(fds[i].fd, buf, sizeof buf);
            if (n > 0) {
                sinks[i]->append(buf, static_cast<size_t>(n));
            } else if (n == 0 || errno != EINTR) {
                ::close(fds[i].fd);
                fds[i].fd = -1;
                --open;
            }
        }
    }
}

} // namespace

ChildRun
rerunSelf(const std::vector<std::string> &args, const std::string &simd)
{
    static const char kExe[] = "/proc/self/exe";
    std::vector<char *> argv{const_cast<char *>(kExe)};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const std::string simd_var = "EXION_SIMD=" + simd;
    std::vector<char *> envp;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "EXION_SIMD=", 11) != 0)
            envp.push_back(*e);
    envp.push_back(const_cast<char *>(simd_var.c_str()));
    envp.push_back(nullptr);

    int out[2];
    int err[2];
    if (::pipe2(out, O_CLOEXEC) != 0 || ::pipe2(err, O_CLOEXEC) != 0)
        fail("pipe2", errno);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, err[1], STDERR_FILENO);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, kExe, &actions, nullptr,
                                 argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    ::close(err[1]);
    if (rc != 0)
        fail("posix_spawn", rc);

    ChildRun run;
    drain(out[0], err[0], run);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            fail("waitpid", errno);
    }
    run.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

} // namespace exion
